//! Human-readable rendering of telemetry dumps for `harp-trace`.
//!
//! Three views over one parsed dump: the span tree (nesting, durations,
//! fields), a per-tick timing table (RM tick / solver phase costs and
//! outcomes), and the metric snapshot. Rendering works identically for
//! live-daemon dumps (timed) and deterministic local dumps (`dur_ns=0`).

use crate::json::{parse, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One event as parsed back out of a JSONL dump (names are owned; the
/// `'static` callsite strings don't survive serialization).
#[derive(Debug, Clone)]
pub struct DumpEvent {
    /// Collector sequence number.
    pub seq: u64,
    /// RM tick.
    pub tick: u64,
    /// Span id (0 = outside any span).
    pub span: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Subsystem wire name.
    pub sub: String,
    /// `span_start` / `span_end` / `instant`.
    pub kind: String,
    /// Callsite name.
    pub name: String,
    /// Span duration (ends only).
    pub dur_ns: u64,
    /// Payload fields in emission order.
    pub fields: Vec<(String, Json)>,
}

/// One parsed metric line.
#[derive(Debug, Clone)]
pub struct DumpMetric {
    /// `counter` / `gauge` / `histogram`.
    pub metric: String,
    /// Metric name.
    pub name: String,
    /// Counter/gauge value (histograms use `count`/`sum`).
    pub value: f64,
    /// Histogram sample count.
    pub count: u64,
    /// Histogram sample sum.
    pub sum: u64,
}

/// A fully parsed telemetry dump.
#[derive(Debug, Clone, Default)]
pub struct ParsedDump {
    /// Events in sequence order.
    pub events: Vec<DumpEvent>,
    /// Metric lines in dump order.
    pub metrics: Vec<DumpMetric>,
    /// Total events the recorder ever saw (meta header).
    pub recorded: u64,
    /// Events evicted from rings before the dump (meta header).
    pub evicted: u64,
    /// Bytes the producer dropped to fit its size ceiling, from a
    /// trailing `truncated` marker line (`None` when complete).
    pub truncated_bytes: Option<u64>,
}

/// Parses a JSONL dump. Unknown line types are skipped so newer dumps
/// degrade gracefully; malformed JSON is an error.
pub fn parse_dump(dump: &str) -> Result<ParsedDump, String> {
    let mut out = ParsedDump::default();
    for (i, line) in dump.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match v.get("type").and_then(Json::as_str) {
            Some("meta") => {
                out.recorded = v.get("recorded").and_then(Json::as_u64).unwrap_or(0);
                out.evicted = v.get("evicted").and_then(Json::as_u64).unwrap_or(0);
            }
            Some("event") => {
                let fields = match v.get("fields") {
                    Some(Json::Obj(members)) => members.clone(),
                    _ => Vec::new(),
                };
                out.events.push(DumpEvent {
                    seq: v.get("seq").and_then(Json::as_u64).unwrap_or(0),
                    tick: v.get("tick").and_then(Json::as_u64).unwrap_or(0),
                    span: v.get("span").and_then(Json::as_u64).unwrap_or(0),
                    parent: v.get("parent").and_then(Json::as_u64).unwrap_or(0),
                    sub: v.get("sub").and_then(Json::as_str).unwrap_or("").into(),
                    kind: v.get("kind").and_then(Json::as_str).unwrap_or("").into(),
                    name: v.get("name").and_then(Json::as_str).unwrap_or("").into(),
                    dur_ns: v.get("dur_ns").and_then(Json::as_u64).unwrap_or(0),
                    fields,
                });
            }
            Some("metric") => {
                out.metrics.push(DumpMetric {
                    metric: v.get("metric").and_then(Json::as_str).unwrap_or("").into(),
                    name: v.get("name").and_then(Json::as_str).unwrap_or("").into(),
                    value: v.get("value").and_then(Json::as_f64).unwrap_or(0.0),
                    count: v.get("count").and_then(Json::as_u64).unwrap_or(0),
                    sum: v.get("sum").and_then(Json::as_u64).unwrap_or(0),
                });
            }
            Some("truncated") => {
                out.truncated_bytes =
                    Some(v.get("dropped_bytes").and_then(Json::as_u64).unwrap_or(0));
            }
            _ => {}
        }
    }
    Ok(out)
}

fn fmt_dur(ns: u64) -> String {
    if ns == 0 {
        "-".into()
    } else if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

fn fmt_field(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 2f64.powi(53) => {
            format!("{}", *n as i64)
        }
        Json::Num(n) => format!("{n:.4}"),
        Json::Bool(b) => b.to_string(),
        Json::Null => "null".into(),
        other => format!("{other:?}"),
    }
}

fn fmt_fields(fields: &[(String, Json)]) -> String {
    if fields.is_empty() {
        return String::new();
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{k}={}", fmt_field(v)))
        .collect();
    format!(" {{{}}}", body.join(", "))
}

/// Renders the span tree: one node per span (labelled from its end
/// event when present), instants as leaf lines, roots in seq order.
pub fn render_span_tree(dump: &ParsedDump) -> String {
    // Children keyed by parent span id; a span is represented by its
    // start event (fall back to the end event if the start was evicted).
    let mut span_events: BTreeMap<u64, (Option<usize>, Option<usize>)> = BTreeMap::new();
    let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut instants: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, ev) in dump.events.iter().enumerate() {
        match ev.kind.as_str() {
            "span_start" => {
                span_events.entry(ev.span).or_default().0 = Some(i);
                children.entry(ev.parent).or_default().push(ev.span);
            }
            "span_end" => {
                let entry = span_events.entry(ev.span).or_default();
                entry.1 = Some(i);
                if entry.0.is_none() {
                    children.entry(ev.parent).or_default().push(ev.span);
                }
            }
            _ => instants.entry(ev.span).or_default().push(i),
        }
    }

    let mut out = String::new();
    fn render_span(
        out: &mut String,
        dump: &ParsedDump,
        span_events: &BTreeMap<u64, (Option<usize>, Option<usize>)>,
        children: &BTreeMap<u64, Vec<u64>>,
        instants: &BTreeMap<u64, Vec<usize>>,
        span: u64,
        depth: usize,
    ) {
        let indent = "  ".repeat(depth);
        let (start, end) = span_events.get(&span).copied().unwrap_or((None, None));
        let head = start.or(end).map(|i| &dump.events[i]);
        if let Some(head) = head {
            let end_ev = end.map(|i| &dump.events[i]);
            let dur = end_ev.map(|e| e.dur_ns).unwrap_or(0);
            let fields = end_ev.map(|e| fmt_fields(&e.fields)).unwrap_or_default();
            let open = if end_ev.is_none() { " [unclosed]" } else { "" };
            let _ = writeln!(
                out,
                "{indent}[{}] {}.{} ({}){}{}",
                head.tick,
                head.sub,
                head.name,
                fmt_dur(dur),
                fields,
                open
            );
        }
        // Interleave instants and child spans by sequence number.
        let mut items: Vec<(u64, bool, u64)> = Vec::new(); // (seq, is_span, id/idx)
        for &child in children.get(&span).map(Vec::as_slice).unwrap_or(&[]) {
            let (s, e) = span_events.get(&child).copied().unwrap_or((None, None));
            if let Some(i) = s.or(e) {
                items.push((dump.events[i].seq, true, child));
            }
        }
        for &idx in instants.get(&span).map(Vec::as_slice).unwrap_or(&[]) {
            items.push((dump.events[idx].seq, false, idx as u64));
        }
        items.sort();
        for (_, is_span, id) in items {
            if is_span {
                render_span(out, dump, span_events, children, instants, id, depth + 1);
            } else {
                let ev = &dump.events[id as usize];
                let _ = writeln!(
                    out,
                    "{}  - {}.{}{}",
                    indent,
                    ev.sub,
                    ev.name,
                    fmt_fields(&ev.fields)
                );
            }
        }
    }

    let roots = children.get(&0).cloned().unwrap_or_default();
    for root in roots {
        render_span(&mut out, dump, &span_events, &children, &instants, root, 0);
    }
    // Top-level instants (span id 0).
    for &idx in instants.get(&0).map(Vec::as_slice).unwrap_or(&[]) {
        let ev = &dump.events[idx];
        let _ = writeln!(
            out,
            "- [{}] {}.{}{}",
            ev.tick,
            ev.sub,
            ev.name,
            fmt_fields(&ev.fields)
        );
    }
    if out.is_empty() {
        out.push_str("(no events)\n");
    }
    out
}

#[derive(Default, Clone)]
struct TickRow {
    rm_tick_ns: u64,
    sched_tick_ns: u64,
    solves: u64,
    solve_ns: u64,
    memo: u64,
    certified: u64,
    full: u64,
    directives: u64,
}

/// Renders a per-tick table of RM/scheduler tick durations and solver
/// phase outcomes.
pub fn render_tick_table(dump: &ParsedDump) -> String {
    let mut rows: BTreeMap<u64, TickRow> = BTreeMap::new();
    for ev in &dump.events {
        let row = rows.entry(ev.tick).or_default();
        match (ev.sub.as_str(), ev.kind.as_str(), ev.name.as_str()) {
            ("rm", "span_end", "tick") => row.rm_tick_ns += ev.dur_ns,
            ("sched", "span_end", "tick") => row.sched_tick_ns += ev.dur_ns,
            ("rm", "instant", "directive") => row.directives += 1,
            ("solver", "span_end", "solve") => {
                row.solves += 1;
                row.solve_ns += ev.dur_ns;
                let outcome = ev
                    .fields
                    .iter()
                    .find(|(f, _)| f == "outcome")
                    .and_then(|(_, v)| v.as_str());
                match outcome {
                    Some("memo_hit") => row.memo += 1,
                    Some("certified") => row.certified += 1,
                    Some("full") => row.full += 1,
                    _ => {}
                }
            }
            _ => {}
        }
    }
    if rows.is_empty() {
        return "(no events)\n".into();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>5} {:>10} {:>10} {:>7} {:>10} {:>5} {:>5} {:>5} {:>5}",
        "tick", "rm", "sched", "solves", "solve_t", "memo", "cert", "full", "dirs"
    );
    for (tick, row) in &rows {
        let _ = writeln!(
            out,
            "{:>5} {:>10} {:>10} {:>7} {:>10} {:>5} {:>5} {:>5} {:>5}",
            tick,
            fmt_dur(row.rm_tick_ns),
            fmt_dur(row.sched_tick_ns),
            row.solves,
            fmt_dur(row.solve_ns),
            row.memo,
            row.certified,
            row.full,
            row.directives
        );
    }
    out
}

/// Renders the metric lines of a dump.
pub fn render_metrics(dump: &ParsedDump) -> String {
    if dump.metrics.is_empty() {
        return "(no metrics)\n".into();
    }
    let mut out = String::new();
    for m in &dump.metrics {
        match m.metric.as_str() {
            "histogram" => {
                let mean = if m.count == 0 {
                    0.0
                } else {
                    m.sum as f64 / m.count as f64
                };
                let _ = writeln!(
                    out,
                    "{:<40} count={} mean={}",
                    m.name,
                    m.count,
                    fmt_dur(mean as u64)
                );
            }
            _ => {
                let _ = writeln!(out, "{:<40} {}", m.name, m.value);
            }
        }
    }
    out
}

/// Renders the reactor-shard table (DESIGN.md §12): one row per shard
/// that saw any traffic, built from the `daemon.shard{N}.*` counters.
/// Empty when the dump carries no shard metrics (sim-only runs, dumps
/// from daemons predating the reactor).
pub fn render_shards(dump: &ParsedDump) -> String {
    let get = |name: String| {
        dump.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap_or(0.0) as u64
    };
    let mut rows = Vec::new();
    for n in 0..8 {
        let row = (
            n,
            get(format!("daemon.shard{n}.accepted")),
            get(format!("daemon.shard{n}.frames")),
            get(format!("daemon.shard{n}.flushes")),
            get(format!("daemon.shard{n}.hangups")),
        );
        if row.1 != 0 || row.2 != 0 || row.3 != 0 || row.4 != 0 {
            rows.push(row);
        }
    }
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>5} {:>9} {:>9} {:>9} {:>9}",
        "shard", "accepted", "frames", "flushes", "hangups"
    );
    for (n, accepted, frames, flushes, hangups) in rows {
        let _ = writeln!(
            out,
            "{n:>5} {accepted:>9} {frames:>9} {flushes:>9} {hangups:>9}"
        );
    }
    out
}

/// Metric names summarized by [`render_fault_tolerance`], in render order.
const FAULT_METRICS: [(&str, &str); 4] = [
    (
        "rm.degraded_ticks",
        "ticks served by the previous allocation",
    ),
    (
        "daemon.reconnects_total",
        "sessions resumed after a disconnect",
    ),
    (
        "daemon.watchdog_restarts",
        "wedged cores replaced from the journal",
    ),
    ("daemon.dead_stream_pruned", "unreachable clients unrouted"),
];

/// Renders the fault-tolerance summary: solver-deadline degradation,
/// client reconnects and watchdog restarts (DESIGN.md §10). Returns an
/// empty string when the dump records none of these — a healthy run
/// prints no fault section at all.
pub fn render_fault_tolerance(dump: &ParsedDump) -> String {
    let mut out = String::new();
    for (name, what) in FAULT_METRICS {
        let Some(m) = dump.metrics.iter().find(|m| m.name == name) else {
            continue;
        };
        if m.value != 0.0 {
            let _ = writeln!(out, "{:<40} {:>8}  {}", m.name, m.value, what);
        }
    }
    out
}

/// Fault kinds tabulated by [`render_degradation`], in render order:
/// the `platform.fault.<kind>` counter suffix and a short description.
const DEGRADATION_KINDS: [(&str, &str); 4] = [
    ("core_fail", "cores lost to hotplug"),
    ("core_recover", "cores returned by hotplug"),
    ("thermal_cap", "cluster thermal-cap changes"),
    ("sensor_drop", "power-sensor dropouts"),
];

/// Summary counters appended below the per-kind degradation table.
const DEGRADATION_SUMMARY: [(&str, &str); 4] = [
    ("platform.sensor_dark_ticks", "ticks with no power reading"),
    ("rm.migrations", "sessions moved off failing cores"),
    ("rm.offline_cores", "cores currently offline"),
    ("rm.quarantined_cores", "cores held out by quarantine"),
];

/// Renders the hardware-degradation summary (DESIGN.md §15): a per-kind
/// table of injected faults plus the migration and quarantine counters.
/// Returns an empty string when no fault was ever injected — a healthy
/// run prints no degradation section at all.
pub fn render_degradation(dump: &ParsedDump) -> String {
    let get = |name: &str| {
        dump.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap_or(0.0)
    };
    let injected = get("platform.faults_injected");
    if injected == 0.0 {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(out, "{:<14} {:>8}  injected faults", "kind", "count");
    for (kind, what) in DEGRADATION_KINDS {
        let v = get(&format!("platform.fault.{kind}"));
        if v != 0.0 {
            let _ = writeln!(out, "{kind:<14} {v:>8}  {what}");
        }
    }
    let _ = writeln!(out, "{:<14} {injected:>8}  total state changes", "all");
    for (name, what) in DEGRADATION_SUMMARY {
        let v = get(name);
        if v != 0.0 {
            let _ = writeln!(out, "{name:<40} {v:>8}  {what}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{instant, set_tick, span, LocalCollector};
    use crate::event::Subsystem;

    fn sample_dump() -> String {
        let local = LocalCollector::install();
        set_tick(1);
        {
            let _tick = span(Subsystem::Rm, "tick").field("apps", 1u64);
            {
                let _realloc = span(Subsystem::Rm, "reallocate");
                let _solve = span(Subsystem::Solver, "solve").field("outcome", "memo_hit");
            }
            instant(Subsystem::Rm, "directive").field("app", 1u64);
        }
        local.dump_jsonl()
    }

    #[test]
    fn span_tree_shows_nesting_and_instants() {
        let parsed = parse_dump(&sample_dump()).unwrap();
        let tree = render_span_tree(&parsed);
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].contains("rm.tick"));
        assert!(lines[1].starts_with("  ") && lines[1].contains("rm.reallocate"));
        assert!(lines[2].starts_with("    ") && lines[2].contains("solver.solve"));
        assert!(lines[2].contains("outcome=memo_hit"));
        assert!(tree.contains("rm.directive"));
    }

    #[test]
    fn tick_table_counts_solver_outcomes() {
        let parsed = parse_dump(&sample_dump()).unwrap();
        let table = render_tick_table(&parsed);
        let row = table.lines().nth(1).unwrap();
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cols[0], "1"); // tick
        assert_eq!(cols[3], "1"); // solves
        assert_eq!(cols[5], "1"); // memo hits
        assert_eq!(cols[8], "1"); // directives
    }

    #[test]
    fn metrics_render() {
        let dump = "{\"type\":\"meta\",\"format\":\"harp-obs-v1\",\"ring_capacity\":1,\"recorded\":0,\"evicted\":0}\n{\"type\":\"metric\",\"metric\":\"counter\",\"name\":\"daemon.accepts\",\"value\":3}\n{\"type\":\"metric\",\"metric\":\"histogram\",\"name\":\"rm.tick_ns\",\"count\":2,\"sum\":2000000,\"buckets\":[0,0,2]}\n";
        let parsed = parse_dump(dump).unwrap();
        let rendered = render_metrics(&parsed);
        assert!(rendered.contains("daemon.accepts"));
        assert!(rendered.contains("count=2"));
    }

    #[test]
    fn fault_tolerance_renders_only_nonzero_counters() {
        let dump = "{\"type\":\"meta\",\"format\":\"harp-obs-v1\",\"ring_capacity\":1,\"recorded\":0,\"evicted\":0}\n{\"type\":\"metric\",\"metric\":\"counter\",\"name\":\"rm.degraded_ticks\",\"value\":2}\n{\"type\":\"metric\",\"metric\":\"counter\",\"name\":\"daemon.reconnects_total\",\"value\":5}\n{\"type\":\"metric\",\"metric\":\"counter\",\"name\":\"daemon.watchdog_restarts\",\"value\":0}\n";
        let parsed = parse_dump(dump).unwrap();
        let rendered = render_fault_tolerance(&parsed);
        assert!(rendered.contains("rm.degraded_ticks"));
        assert!(rendered.contains("daemon.reconnects_total"));
        assert!(
            !rendered.contains("watchdog_restarts"),
            "zero counters stay quiet"
        );

        let healthy = "{\"type\":\"meta\",\"format\":\"harp-obs-v1\",\"ring_capacity\":1,\"recorded\":0,\"evicted\":0}\n";
        let parsed = parse_dump(healthy).unwrap();
        assert!(render_fault_tolerance(&parsed).is_empty());
    }

    #[test]
    fn degradation_renders_per_kind_table_and_stays_quiet_when_healthy() {
        let dump = "{\"type\":\"meta\",\"format\":\"harp-obs-v1\",\"ring_capacity\":1,\"recorded\":0,\"evicted\":0}\n\
            {\"type\":\"metric\",\"metric\":\"counter\",\"name\":\"platform.faults_injected\",\"value\":3}\n\
            {\"type\":\"metric\",\"metric\":\"counter\",\"name\":\"platform.fault.core_fail\",\"value\":2}\n\
            {\"type\":\"metric\",\"metric\":\"counter\",\"name\":\"platform.fault.thermal_cap\",\"value\":1}\n\
            {\"type\":\"metric\",\"metric\":\"counter\",\"name\":\"rm.migrations\",\"value\":5}\n\
            {\"type\":\"metric\",\"metric\":\"gauge\",\"name\":\"rm.quarantined_cores\",\"value\":1}\n";
        let parsed = parse_dump(dump).unwrap();
        let rendered = render_degradation(&parsed);
        assert!(rendered.contains("core_fail"));
        assert!(rendered.contains("thermal_cap"));
        assert!(
            !rendered.contains("core_recover"),
            "zero kinds stay quiet:\n{rendered}"
        );
        assert!(rendered.contains("rm.migrations"));
        assert!(rendered.contains("rm.quarantined_cores"));
        assert!(rendered.contains("total state changes"));

        let healthy = "{\"type\":\"meta\",\"format\":\"harp-obs-v1\",\"ring_capacity\":1,\"recorded\":0,\"evicted\":0}\n\
            {\"type\":\"metric\",\"metric\":\"counter\",\"name\":\"rm.migrations\",\"value\":0}\n";
        let parsed = parse_dump(healthy).unwrap();
        assert!(
            render_degradation(&parsed).is_empty(),
            "no injected faults, no section"
        );
    }

    #[test]
    fn shard_table_renders_only_active_shards() {
        let dump = "{\"type\":\"meta\",\"format\":\"harp-obs-v1\",\"ring_capacity\":1,\"recorded\":0,\"evicted\":0}\n\
            {\"type\":\"metric\",\"metric\":\"counter\",\"name\":\"daemon.shard0.accepted\",\"value\":3}\n\
            {\"type\":\"metric\",\"metric\":\"counter\",\"name\":\"daemon.shard0.frames\",\"value\":9}\n\
            {\"type\":\"metric\",\"metric\":\"counter\",\"name\":\"daemon.shard1.accepted\",\"value\":2}\n\
            {\"type\":\"metric\",\"metric\":\"counter\",\"name\":\"daemon.shard1.hangups\",\"value\":1}\n";
        let parsed = parse_dump(dump).unwrap();
        let rendered = render_shards(&parsed);
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3, "header + two active shards:\n{rendered}");
        let row0: Vec<&str> = lines[1].split_whitespace().collect();
        assert_eq!(row0, ["0", "3", "9", "0", "0"]);
        let row1: Vec<&str> = lines[2].split_whitespace().collect();
        assert_eq!(row1, ["1", "2", "0", "0", "1"]);

        // No shard counters at all: the section disappears entirely.
        let quiet = "{\"type\":\"meta\",\"format\":\"harp-obs-v1\",\"ring_capacity\":1,\"recorded\":0,\"evicted\":0}\n";
        assert!(render_shards(&parse_dump(quiet).unwrap()).is_empty());
    }

    #[test]
    fn unclosed_spans_are_marked() {
        let dump = "{\"type\":\"meta\",\"format\":\"harp-obs-v1\",\"ring_capacity\":1,\"recorded\":1,\"evicted\":0}\n{\"type\":\"event\",\"seq\":0,\"tick\":0,\"span\":1,\"parent\":0,\"sub\":\"daemon\",\"kind\":\"span_start\",\"name\":\"conn\",\"dur_ns\":0,\"fields\":{}}\n";
        let parsed = parse_dump(dump).unwrap();
        assert!(render_span_tree(&parsed).contains("[unclosed]"));
    }
}

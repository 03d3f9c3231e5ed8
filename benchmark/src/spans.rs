//! Benchmark-side spans: one record per call into a layer's public API,
//! kept in memory during a traced run and written out as JSONL when the
//! run ends. Self time is a span's duration minus its children's.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span plus one; 0 for a root.
    pub parent: u32,
    /// The operation (lifecycle / RM call / simulation run) it belongs to.
    pub op: u64,
}

/// Spans of one traced run. Bounded: a run that would exceed `cap` spans
/// keeps the first `cap` (a sample of whole operations from the start of
/// the traced phase) and counts the rest.
pub struct Spans {
    v: Vec<Span>,
    cap: usize,
    pub dropped: u64,
}

impl Spans {
    pub fn new(cap: usize) -> Spans {
        Spans {
            v: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Records a finished span; returns its id for use as a parent (0 if
    /// it was dropped, which makes its children roots).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        op: u64,
    ) -> u32 {
        if self.v.len() >= self.cap {
            self.dropped += 1;
            return 0;
        }
        self.v.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.v.len() as u32
    }

    /// Self time per span: duration minus the time its direct children
    /// cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .v
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.v {
            if s.parent != 0 {
                let i = s.parent as usize - 1;
                own[i] = own[i].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }

    /// Median self time in microseconds per span name.
    pub fn self_us_p50(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_ns();
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.v.iter().zip(own) {
            by.entry(s.name).or_default().push(ns as f64 / 1e3);
        }
        by.into_iter()
            .map(|(k, mut v)| (k, crate::stats::median(&mut v)))
            .collect()
    }

    /// Writes one JSON object per span: name, start, end, parent, op and
    /// the derived self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.v.iter().zip(self.self_ns()).enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"self_ns\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.op,
                own
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::new(16);
        let op = s.push("op", 0, 10_000, 0, 1);
        s.push("a", 1_000, 4_000, op, 1);
        s.push("b", 5_000, 7_000, op, 1);
        let p50 = s.self_us_p50();
        assert_eq!(p50["op"], 5.0);
        assert_eq!(p50["a"], 3.0);
        assert_eq!(p50["b"], 2.0);
    }

    #[test]
    fn cap_drops_and_counts() {
        let mut s = Spans::new(1);
        assert_eq!(s.push("x", 0, 1, 0, 0), 1);
        assert_eq!(s.push("y", 0, 1, 0, 0), 0);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.v.len(), 1);
    }
}

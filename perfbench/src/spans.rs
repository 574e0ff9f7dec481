//! In-memory spans: client requests as roots, the server's flight-record
//! stages joined beneath them by trace id, and in-process library calls
//! as roots of their own.  Self time is a span's duration minus the part
//! its children cover; the log is written out as JSONL at the end.

use crate::stats;
use hotspot_telemetry::flight::STAGE_COUNT;
use hotspot_telemetry::RequestRecord;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Flight-record stage span names, in pipeline order.
const STAGE_SPANS: [&str; STAGE_COUNT] = [
    "serve.admission",
    "serve.queue_wait",
    "serve.batch",
    "serve.dispatch",
    "serve.inference",
    "serve.reply",
];

/// One timed interval on the shared monotonic clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub trace_id: u64,
    /// Index of the parent span in the log, `None` for a root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-layer self-time summary (see [`SpanLog::summary`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: String,
    pub count: usize,
    pub total_ns: u64,
    pub p50_ns: f64,
}

/// Spans held in memory until the run ends.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a span and returns its index.
    pub fn push(
        &mut self,
        name: &str,
        trace_id: u64,
        parent: Option<usize>,
        start_ns: u64,
        dur_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            trace_id,
            parent,
            start_ns,
            dur_ns,
        });
        self.spans.len() - 1
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Adds the stages of each flight record as children of the root
    /// span carrying the same trace id.  Stages are laid end to end from
    /// the record's admission stamp.  Returns how many roots were joined.
    pub fn join_flight(&mut self, roots: &[usize], records: &[RequestRecord]) -> usize {
        let by_trace: HashMap<u64, &RequestRecord> =
            records.iter().map(|r| (r.trace_id, r)).collect();
        let mut joined = 0;
        for &root in roots {
            let trace_id = self.spans[root].trace_id;
            let Some(rec) = by_trace.get(&trace_id) else {
                continue;
            };
            let mut at = rec.admitted_ns;
            for (stage, &ns) in rec.stage_ns.iter().enumerate() {
                if rec.stages_recorded & (1 << stage) != 0 {
                    self.push(STAGE_SPANS[stage], trace_id, Some(root), at, ns);
                    at += ns;
                }
            }
            joined += 1;
        }
        joined
    }

    /// Self time of every span, indexed like [`spans`](SpanLog::spans).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.start_ns + s.dur_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.dur_ns - covered(s.start_ns, s.start_ns + s.dur_ns, kids))
            .collect()
    }

    /// Self time per span name, names in first-seen order.
    pub fn summary(&self) -> Vec<SelfTime> {
        let selfs = self.self_times();
        let mut order: Vec<&str> = Vec::new();
        let mut by_name: HashMap<&str, Vec<f64>> = HashMap::new();
        for (s, &own) in self.spans.iter().zip(&selfs) {
            by_name
                .entry(&s.name)
                .or_insert_with(|| {
                    order.push(&s.name);
                    Vec::new()
                })
                .push(own as f64);
        }
        order
            .into_iter()
            .map(|name| {
                let v = &by_name[name];
                SelfTime {
                    name: name.to_string(),
                    count: v.len(),
                    total_ns: v.iter().sum::<f64>() as u64,
                    p50_ns: stats::median(v),
                }
            })
            .collect()
    }

    /// Every span as one JSON line, then one summary line per name.
    pub fn to_jsonl(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"trace_id\":\"{:016x}\",\"parent\":{parent},\
                 \"start_ns\":{},\"dur_ns\":{},\"self_ns\":{own}}}",
                s.name, s.trace_id, s.start_ns, s.dur_ns
            );
        }
        for t in self.summary() {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{}\",\"count\":{},\"self_ns_total\":{},\"self_ns_p50\":{}}}",
                t.name, t.count, t.total_ns, t.p50_ns
            );
        }
        out
    }
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(trace_id: u64, admitted_ns: u64, stage_ns: [u64; STAGE_COUNT]) -> RequestRecord {
        RequestRecord {
            trace_id,
            admitted_ns,
            stage_ns,
            stages_recorded: (1 << STAGE_COUNT) - 1,
            ..RequestRecord::default()
        }
    }

    #[test]
    fn flight_stages_join_under_their_client_span() {
        let mut log = SpanLog::default();
        let a = log.push("client.classify", 0xA, None, 1_000, 500);
        let b = log.push("client.classify", 0xB, None, 2_000, 300);
        let records = [
            record(0xA, 1_100, [10, 100, 5, 5, 200, 20]),
            record(0xC, 0, [1; STAGE_COUNT]), // no client span: ignored
        ];
        assert_eq!(log.join_flight(&[a, b], &records), 1);
        let kids: Vec<&Span> = log.spans().iter().filter(|s| s.parent == Some(a)).collect();
        assert_eq!(kids.len(), STAGE_COUNT);
        assert_eq!(kids[1].name, "serve.queue_wait");
        assert_eq!((kids[1].start_ns, kids[1].dur_ns), (1_110, 100));
        assert_eq!((kids[5].start_ns, kids[5].dur_ns), (1_420, 20));
        let selfs = log.self_times();
        assert_eq!(selfs[a], 500 - 340, "root keeps what the stages leave");
        assert_eq!(selfs[b], 300, "an unjoined root is all self time");
        assert_eq!(selfs[kids_index(&log, a, 4)], 200);
    }

    fn kids_index(log: &SpanLog, parent: usize, nth: usize) -> usize {
        log.spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(parent))
            .nth(nth)
            .map(|(i, _)| i)
            .unwrap()
    }

    #[test]
    fn self_time_counts_overlaps_once_and_clips_to_the_parent() {
        let mut log = SpanLog::default();
        let root = log.push("root", 1, None, 0, 20);
        log.push("x", 1, Some(root), 0, 10);
        log.push("y", 1, Some(root), 5, 10); // overlaps x by 5
        log.push("z", 1, Some(root), 18, 10); // runs past the parent
        assert_eq!(log.self_times()[root], 20 - 15 - 2);
        let summary = log.summary();
        assert_eq!(summary[0].name, "root");
        assert_eq!(summary[0].total_ns, 3);
        assert_eq!(summary.len(), 4);
    }

    #[test]
    fn jsonl_has_a_line_per_span_and_per_layer() {
        let mut log = SpanLog::default();
        let root = log.push("client.scan", 0xF, None, 0, 100);
        log.push("serve.inference", 0xF, Some(root), 10, 60);
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"self_ns\":60"));
        assert!(
            lines[2].starts_with("{\"summary\":\"client.scan\"")
                && lines[2].contains("\"self_ns_total\":40")
        );
    }
}

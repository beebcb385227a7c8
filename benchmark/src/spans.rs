//! The ledger's own span recorder. Spans are taken around calls into
//! the product's public functions and endpoints — nothing inside the
//! product is instrumented — kept in memory, and written out when the
//! run ends.

use std::time::Instant;

/// One timed interval. `parent` indexes into the same span list;
/// spans of one operation share `op_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span list with one monotonic epoch.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, op_id: u32) -> u32 {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op_id,
        });
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans per run")
    }

    /// Close a span, returning its duration in nanoseconds.
    pub fn end(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.duration_ns()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its direct children (overlapping children are
/// counted once; a child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p as usize];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// The span list as one JSON array (one object per span).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op_id
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(0, 100, None),    // root
            span(10, 30, Some(0)), // child
            span(40, 70, Some(0)), // child with its own child
            span(45, 55, Some(2)), // grandchild: not the root's business
            span(200, 250, None),  // childless root
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10, 50]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span(100, 200, None),
            span(110, 150, Some(0)),
            span(140, 180, Some(0)), // overlaps the previous by 10
            span(120, 130, Some(0)), // wholly inside the first
            span(190, 260, Some(0)), // sticks out past the parent's end
            span(0, 50, Some(0)),    // wholly outside: covers nothing
        ];
        // Covered: [110,180] = 70 and [190,200] = 10.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn spans_serialize_with_parent_and_op() {
        let mut tracer = Tracer::new();
        let root = tracer.begin("op", None, 7);
        let leaf = tracer.begin("leaf", Some(root), 7);
        tracer.end(leaf);
        tracer.end(root);
        let json = to_json(&tracer.spans);
        assert!(json.starts_with("[{\"id\":0,\"name\":\"op\""), "{json}");
        assert!(json.contains("\"parent\":0,\"op_id\":7}"), "{json}");
    }
}

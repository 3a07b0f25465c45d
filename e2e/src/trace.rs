//! Spans of the traced run: held in memory while the workload runs and
//! written out as JSON lines when it ends.

use std::io::{BufWriter, Write};
use std::path::Path;

/// One interval at a layer boundary. Spans of one staged task share
/// `(label, step)`; `parent` names the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The crate the time is charged to.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub label: String,
    pub step: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span's self time: its duration minus the part of it that its
/// children cover. Children are clipped to the parent and overlapping
/// children are counted once.
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// Self time of every span in `spans`, by span id.
pub fn self_times(spans: &[Span]) -> std::collections::HashMap<u64, u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            (s.id, self_time_ns((s.start_ns, s.end_ns), kids))
        })
        .collect()
}

/// Write `spans` as JSON lines, one object per span.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"workload\":\"{}\",\"label\":\"{}\",\"step\":{}}}",
            s.id, parent, s.name, s.layer, s.start_ns, s.end_ns, workload, s.label, s.step
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time_ns((10, 110), &[]), 100);
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // A child and its own child cover the same interval of the
        // grandparent only once when both are listed.
        assert_eq!(self_time_ns((0, 100), &[(10, 40), (20, 30)]), 70);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        assert_eq!(self_time_ns((0, 100), &[(10, 50), (30, 70)]), 40);
        assert_eq!(self_time_ns((0, 100), &[(30, 70), (10, 50), (60, 65)]), 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time_ns((50, 100), &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time_ns((50, 100), &[(0, 10), (100, 200)]), 50);
        assert_eq!(self_time_ns((50, 100), &[(0, 200)]), 0);
    }

    #[test]
    fn self_times_follow_parent_links() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: "x",
            layer: "core",
            start_ns,
            end_ns,
            label: "l".into(),
            step: 1,
        };
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 60),
            span(3, Some(2), 20, 30),
            span(4, Some(1), 50, 80),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 30);
        assert_eq!(st[&2], 40);
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 30);
    }
}

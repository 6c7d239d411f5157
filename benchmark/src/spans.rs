//! Spans around the calls the harness makes into each layer.
//!
//! Kept in memory while the traced run measures and written out once at
//! the end. A span's parent is the span that was open when it began; a
//! layer's self time is its span minus the part its children cover.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, as `layer.function`.
    pub name: &'static str,
    /// The cell (or probe) the call belongs to: spans of one cell share it.
    pub cell: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created; 0 while still open.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &'static str, cell: &str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            cell: cell.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it) and returns
    /// its duration in nanoseconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        (now - self.spans[id].start_ns) as f64
    }

    /// How many spans are named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of span `id`: its duration minus what its direct
    /// children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns, c.end_ns))
            .collect();
        self_time((s.start_ns, s.end_ns), &children)
    }

    /// Writes one JSON object per span, in the order they were opened.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating the directory or the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"cell\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"self_ns\":{},\"parent\":{parent}}}",
                s.name,
                s.cell,
                s.start_ns,
                s.end_ns,
                self.self_ns(id)
            );
        }
        std::fs::write(path, out)
    }
}

/// Length of `parent` minus the part of it that `children` cover.
/// Children are clipped to the parent, and where they overlap each other
/// the overlap is counted once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let from = s.max(reach);
        if e > from {
            covered += e - from;
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 30), (50, 60)]), 70);
        // A child that fills the parent leaves nothing.
        assert_eq!(self_time((5, 25), &[(5, 25)]), 0);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        // 10..40 and 30..60 cover 10..60 = 50, not 60.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // A child nested in another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Order of the children does not matter.
        assert_eq!(self_time((0, 100), &[(30, 60), (10, 40)]), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time((10, 20), &[(0, 12), (18, 40)]), 6);
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
    }

    #[test]
    fn recorder_nests_spans_and_reports_self_time() {
        let mut spans = Spans::new();
        let outer = spans.enter("bench.cell", "c0");
        let inner = spans.enter("threads.engine_run", "c0");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_ns = spans.exit(inner);
        let outer_ns = spans.exit(outer);
        assert!(inner_ns >= 2e6 && outer_ns >= inner_ns);
        assert_eq!(spans.spans[inner].parent, Some(outer));
        assert_eq!(spans.spans[outer].parent, None);
        assert_eq!(spans.self_ns(outer), (outer_ns - inner_ns) as u64);
        assert_eq!(spans.count("threads.engine_run"), 1);
    }
}

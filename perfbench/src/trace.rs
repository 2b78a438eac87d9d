//! In-memory span recorder for the traced run.
//!
//! A span wraps one call into a layer's public function. It records its
//! name, start, end, parent span and the operation it belongs to; spans
//! stay in memory and are written out once, when the run ends. A layer's
//! self time is its span's duration minus the time its direct children
//! cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Open spans form a stack; every span opened while another is open is
/// its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new operation: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Close the innermost open span; returns its duration in ms.
    pub fn exit(&mut self) -> f64 {
        let idx = self.open.pop().expect("exit matches an enter");
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e6
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Position marking "now" for [`Tracer::self_ms_since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time in ms per span name over the closed spans recorded since
    /// `mark`.
    pub fn self_ms_since(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let mut children_ns = vec![0u64; self.spans.len() - mark];
        for s in &self.spans[mark..] {
            if let Some(p) = s.parent.filter(|&p| p >= mark) {
                children_ns[p - mark] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans[mark..].iter().zip(children_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tr = Tracer::default();
        let mark = tr.mark();
        tr.next_op();
        tr.enter("outer");
        tr.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        let outer_total = tr.exit();
        let own = tr.self_ms_since(mark);
        assert!(own["inner"] >= 20.0);
        assert!(own["outer"] >= 5.0 && own["outer"] < outer_total - 19.0);
        assert_eq!(tr.len(), 2);
    }
}

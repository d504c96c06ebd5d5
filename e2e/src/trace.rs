//! Spans recorded from outside the system: one around every call the
//! benchmark makes into a layer during a `--trace 1` run. Kept in memory
//! and written as JSON lines when the run ends.

use crate::json::Json;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` is the id of the span that caused it (0 for a
/// root); spans of one request or batch share `req`. A `replay` span was
/// measured by repeating its parent's work in process afterwards, so only
/// its duration — not its position in time — relates to the parent.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replay: bool,
}

/// The span store of one run. All times are nanoseconds since `epoch`.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        req: u64,
        replay: bool,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { id, parent, req, name, start_ns, end_ns, replay });
        id
    }

    /// Starts a span that [`close`](Self::close) ends, for a parent whose
    /// children are recorded while it runs.
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let now = self.now_ns();
        self.push(name, now, now, parent, req, false)
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize - 1].end_ns = self.now_ns();
    }

    /// Times `f` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        replay: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(name, start, end, parent, req, replay);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of all spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj(vec![
                ("id", Json::U64(u64::from(s.id))),
                ("parent", Json::U64(u64::from(s.parent))),
                ("req", Json::U64(s.req)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
                ("replay", Json::Bool(s.replay)),
            ]);
            writeln!(w, "{}", line.render())?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_parent_id_and_sum_by_name() {
        let mut t = Tracer::new();
        let root = t.push("batch", 0, 100, 0, 7, false);
        t.push("core.encode", 0, 30, root, 7, false);
        t.push("core.encode", 40, 50, root, 7, false);
        assert_eq!(root, 1);
        assert_eq!(t.spans()[2].parent, 1);
        assert_eq!(t.total_ns("core.encode"), 40);
        let got = t.span("x", 0, 1, true, || 5);
        assert_eq!(got, 5);
        assert!(t.spans()[3].end_ns >= t.spans()[3].start_ns);
        let outer = t.open("outer", 0, 2);
        t.span("inner", outer, 2, false, || ());
        t.close(outer);
        let (outer, inner) = (&t.spans()[4], &t.spans()[5]);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}

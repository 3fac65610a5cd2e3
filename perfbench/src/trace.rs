//! In-memory span recorder for the traced run.
//!
//! Every operation opens a root span with a fresh op id; the layer calls it
//! makes open child spans that inherit that id. Spans stay in memory until
//! the run ends and are then written out as JSON lines. A span's *self
//! time* is its duration minus the part of its interval that its children
//! cover.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. Outside any open span the span is an
    /// operation root and gets a new op id; inside one it is a child.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let parent = self.open.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Recorder::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                s.duration_ns() - covered.min(s.duration_ns())
            })
            .collect()
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Summed duration in milliseconds of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        // A fold from +0.0: an empty `sum` of floats is -0.0.
        self.durations_ms(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Write every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_share_the_op_id_and_self_time_excludes_them() {
        let mut rec = Recorder::new();
        rec.span("op", |rec| {
            rec.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        rec.span("op", |_| {});
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].op, spans[0].op);
        assert_eq!(spans[2].parent, Some(0));
        assert_ne!(spans[3].op, spans[0].op);
        let self_ns = rec.self_ns();
        let kids = spans[1].duration_ns() + spans[2].duration_ns();
        assert_eq!(self_ns[0], spans[0].duration_ns() - kids);
        assert_eq!(self_ns[1], spans[1].duration_ns());
    }
}

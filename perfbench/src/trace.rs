//! The span recorder of the traced run.
//!
//! Spans live in a buffer allocated before the timed phase; recording one
//! is a bounds check and a write, never an allocation. A phase stops when
//! its buffer cannot hold another op's spans, so the buffer bounds memory
//! instead of growing with throughput. Spans are written out after the run.

use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call: `[start_ns, end_ns)` relative to the recorder's base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when on; does nothing (and returns [`NO_PARENT`]) when off,
/// so one op body serves both the untraced and the traced run.
pub struct Tracer {
    base: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn off() -> Self {
        Self {
            base: Instant::now(),
            spans: None,
        }
    }

    /// A recorder with room for `capacity` spans, allocated now.
    pub fn on(capacity: usize) -> Self {
        Self {
            base: Instant::now(),
            spans: Some(Vec::with_capacity(capacity)),
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Whether `more` spans still fit without growing the buffer.
    pub fn has_room(&self, more: usize) -> bool {
        match &self.spans {
            Some(s) => s.capacity() - s.len() >= more,
            None => true,
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    #[inline]
    pub fn open(&mut self, name: &'static str, op: u32, parent: u32) -> u32 {
        let now = self.now_ns();
        match &mut self.spans {
            Some(spans) if spans.len() < spans.capacity() => {
                spans.push(Span {
                    name,
                    op,
                    parent,
                    start_ns: now,
                    end_ns: now,
                });
                (spans.len() - 1) as u32
            }
            _ => NO_PARENT,
        }
    }

    #[inline]
    pub fn close(&mut self, idx: u32) {
        if idx == NO_PARENT {
            return;
        }
        let now = self.now_ns();
        if let Some(spans) = &mut self.spans {
            spans[idx as usize].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.open(name, op, parent);
        let out = f();
        self.close(idx);
        out
    }

    /// Renames an open or closed span (for a name known only after the
    /// call, such as whether a lookup hit).
    pub fn rename(&mut self, idx: u32, name: &'static str) {
        if let Some(s) = self.spans.as_mut().and_then(|s| s.get_mut(idx as usize)) {
            s.name = name;
        }
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = children.get_mut(s.parent as usize) {
            list.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Durations (ns) of every span named `name`, ascending.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    let mut d: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect();
    d.sort_unstable();
    d
}

/// Writes spans as tab-separated rows: op, index, parent, name, start,
/// end and self time in nanoseconds.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{}\t{i}\t{parent}\t{}\t{}\t{}\t{self_ns}",
            s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = [
            span("op", NO_PARENT, 0, 100),
            span("a", 0, 10, 30),
            span("b", 0, 25, 50), // overlaps a: [10, 50) covered once
            span("a.inner", 1, 12, 18),
            span("c", 0, 90, 130), // runs past the parent's end: clamped
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 25, 6, 40]);
    }

    #[test]
    fn recorder_never_grows_its_buffer() {
        let mut t = Tracer::on(2);
        let root = t.open("op", 0, NO_PARENT);
        assert_eq!(t.span("child", 0, root, || 7), 7);
        assert!(!t.has_room(1));
        assert_eq!(t.open("dropped", 0, root), NO_PARENT);
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, root);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::off();
        assert_eq!(off.open("op", 0, NO_PARENT), NO_PARENT);
        assert!(off.spans().is_empty());
    }
}

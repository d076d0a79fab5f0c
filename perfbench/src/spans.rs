//! Wall-clock spans recorded by the benchmark around calls into each
//! layer's public functions. Spans are kept in memory and written out
//! once, when the run ends, so recording costs one `Instant::now` pair
//! and a `Vec` push.

use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a span that has no parent.
pub const ROOT: u32 = u32::MAX;

/// One timed call: which layer, which span caused it, which operation
/// it belongs to, and its start and end in nanoseconds since the
/// recorder was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer id from [`Tracer::layer`].
    pub layer: u16,
    /// Index of the enclosing span in [`Tracer::spans`], or [`ROOT`].
    pub parent: u32,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. When off, [`Tracer::span`] only calls its closure.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Default for Tracer {
    /// A recorder with no layers and no spans, not recording.
    fn default() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    /// Id of the layer called `name`, adding it on first use.
    pub fn layer(&mut self, name: &str) -> u16 {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name.to_string());
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Turn recording on or off (spans already recorded stay).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tag the spans that follow with operation id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span of `layer` (nested under the innermost open
    /// span) when recording; otherwise just run `f`.
    pub fn span<R>(&mut self, layer: u16, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            parent,
            op: self.op,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        r
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total time of the spans of the layer called `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        match self.names.iter().position(|n| n == name) {
            Some(l) => self
                .spans
                .iter()
                .filter(|s| s.layer as usize == l)
                .map(Span::ns)
                .sum(),
            None => 0,
        }
    }

    /// Total time of the direct children of spans of the layer `parent`
    /// whose own layer is in `counted`, in ns.
    pub fn children_ns(&self, parent: &str, counted: &[&str]) -> u64 {
        let Some(p) = self.names.iter().position(|n| n == parent) else {
            return 0;
        };
        self.spans
            .iter()
            .filter(|s| {
                s.parent != ROOT
                    && self.spans[s.parent as usize].layer as usize == p
                    && counted.contains(&self.names[s.layer as usize].as_str())
            })
            .map(Span::ns)
            .sum()
    }

    /// The spans as JSON lines: name, start, end, parent and op id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                self.names[s.layer as usize], s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

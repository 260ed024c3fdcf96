//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: name, start, end, the span that was
//! open when it started (its parent) and the request it belongs to.
//! Spans stay in memory while the run measures and are written out once
//! at the end. A layer's self time is its duration minus the time its
//! direct children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u32,
}

/// Records spans when enabled; when disabled `span` only runs the call.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

/// Summed self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub self_ns: u64,
    pub calls: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for request `request`.
    pub fn span<R>(&self, name: &'static str, request: u32, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied().unwrap_or(NO_PARENT);
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                request,
            });
            (spans.len() - 1) as u32
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx as usize].end_ns = end;
        out
    }

    /// Self time and calls per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.self_ns += (s.end_ns - s.start_ns).saturating_sub(child);
            t.calls += 1;
        }
        out
    }

    /// Write every span as one tab-separated line:
    /// `index name start_ns end_ns parent request` (parent `-` for roots).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

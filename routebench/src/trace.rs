//! Spans recorded by the benchmark around its calls into the program.
//!
//! One span per layer call per pump round (never per frame), each with
//! its frame count and the span that caused it. Backend spans are the
//! wrappers' busy time for the round, attached as children of the pump
//! span that called them. Spans stay in memory; the traced run writes
//! them out when it ends.

use crate::device::{now_ns, Port};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Sentinel parent of a top-level span.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name (`router.pump`, `iodev.rx`, ...).
    pub layer: &'static str,
    /// Start on the [`now_ns`] clock.
    pub start_ns: u64,
    /// Duration.
    pub dur_ns: u64,
    /// Frames the call moved.
    pub frames: u64,
    /// Index of the causing span, or [`ROOT`].
    parent: u32,
}

/// Per-layer totals over a range of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    /// Summed span time.
    pub total_ns: u64,
    /// Summed span time minus the time of the spans' children.
    pub self_ns: u64,
    /// Summed frame counts.
    pub frames: u64,
    /// Number of spans.
    pub spans: u64,
}

/// The span recorder. Off, every call is a no-op that reads no clock.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records (`on`) or does nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::with_capacity(if on { 1 << 20 } else { 0 }),
        }
    }

    /// True when recording.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts or stops recording; recorded spans stay.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Start time of a span about to open (0 when off).
    pub fn start(&self) -> u64 {
        if self.on {
            now_ns()
        } else {
            0
        }
    }

    /// Closes a top-level span that started at `start`; returns its index.
    pub fn span(&mut self, layer: &'static str, start: u64, frames: u64) -> usize {
        self.push(layer, start, now_ns().saturating_sub(start), frames, ROOT)
    }

    /// Records a span of known duration under `parent`.
    pub fn child(&mut self, layer: &'static str, parent: usize, dur_ns: u64, frames: u64) {
        if self.on && (dur_ns > 0 || frames > 0) {
            let start = self.spans[parent].start_ns;
            self.push(layer, start, dur_ns, frames, parent as u32);
        }
    }

    /// Closes a pump span and hangs the round's backend time under it.
    pub fn pump_span(
        &mut self,
        layer: &'static str,
        start: u64,
        frames: u64,
        rx: &Port,
        tx: &Port,
    ) {
        if !self.on {
            return;
        }
        let id = self.span(layer, start, frames);
        let (rx_ns, rx_frames) = rx.take_round();
        let (tx_ns, tx_frames) = tx.take_round();
        self.child("iodev.rx", id, rx_ns, rx_frames);
        self.child("iodev.tx", id, tx_ns, tx_frames);
    }

    fn push(
        &mut self,
        layer: &'static str,
        start: u64,
        dur: u64,
        frames: u64,
        parent: u32,
    ) -> usize {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            layer,
            start_ns: start,
            dur_ns: dur,
            frames,
            parent,
        });
        self.spans.len() - 1
    }

    /// Index of the next span: marks the start of a measured range.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Per-layer totals of the spans recorded since `from`.
    pub fn totals(&self, from: usize) -> BTreeMap<&'static str, LayerTotal> {
        let spans = &self.spans[from.min(self.spans.len())..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != ROOT && s.parent as usize >= from {
                child_ns[s.parent as usize - from] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, c) in spans.iter().zip(child_ns) {
            let t = out.entry(s.layer).or_default();
            t.total_ns += s.dur_ns;
            t.self_ns += s.dur_ns.saturating_sub(c);
            t.frames += s.frames;
            t.spans += 1;
        }
        out
    }

    /// Writes up to `cap` spans as JSON lines, oldest first, and says how
    /// many were left out.
    pub fn dump(&self, cap: usize) -> String {
        let mut out = String::new();
        let t0 = self.spans.first().map_or(0, |s| s.start_ns);
        for (i, s) in self.spans.iter().take(cap).enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"layer\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"frames\":{},\"parent\":{parent}}}",
                s.layer,
                s.start_ns - t0,
                s.dur_ns,
                s.frames
            );
        }
        if self.spans.len() > cap {
            let _ = writeln!(out, "{{\"spans_not_written\":{}}}", self.spans.len() - cap);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let p = t.push("router.pump", 0, 100, 4, ROOT);
        t.child("iodev.rx", p, 30, 4);
        t.child("iodev.tx", p, 20, 4);
        t.push("router.graph", 100, 50, 4, ROOT);
        let tot = t.totals(0);
        assert_eq!(tot["router.pump"].self_ns, 50);
        assert_eq!(tot["router.pump"].total_ns, 100);
        assert_eq!(tot["iodev.rx"].self_ns, 30);
        assert_eq!(tot["router.graph"].self_ns, 50);
        // A range that starts after a parent ignores children of it.
        let later = t.totals(1);
        assert!(!later.contains_key("router.pump"));
        assert_eq!(later["iodev.rx"].self_ns, 30);
    }
}

//! The benchmark's own spans, recorded around calls into each layer (spans
//! inside the program are a later change). Held in memory, written out once
//! at exit. Every span carries the span that caused it and the id of the
//! user operation or replay it belongs to.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Switch recording on or off (the untraced half of the overhead pair).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. A span opened with no span above it starts a
    /// new operation; nested spans share their root's operation id.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        if self.stack.is_empty() {
            self.op += 1;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let r = std::hint::black_box(f(self));
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Span time minus the part of it its child spans cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Self times, in milliseconds, of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i) as f64 / 1e6)
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(self.self_ns(i) as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op", Json::Num(s.op as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_operations_and_self_time() {
        let mut t = Tracer::new(true);
        t.span("op", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("child", |_| ());
        });
        t.span("op", |_| ());
        let s = &t.spans;
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (None, Some(0), Some(0), None)
        );
        assert_eq!((s[0].op, s[1].op, s[2].op, s[3].op), (1, 1, 1, 2));
        let total = s[0].end_ns - s[0].start_ns;
        let child = s[1].end_ns - s[1].start_ns;
        assert!(child >= 2_000_000 && t.self_ns(0) <= total - child);
        assert_eq!(t.self_ms("child").len(), 2);
        assert_eq!(t.to_json().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn off_records_nothing_but_still_runs_the_work() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("op", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}

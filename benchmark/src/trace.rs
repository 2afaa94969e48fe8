//! The harness's stopwatch and its spans.
//!
//! Every call the harness makes into a layer goes through
//! [`Stopwatch::call`], which times it and books the time to the
//! repetition's set-up clock, its wall clock, or neither (verification).
//! With recording on — the one extra traced repetition — each call also
//! leaves a span (name, start, end, parent, attributes) in memory, written
//! out as Chrome-trace JSON when the process ends. Spans *inside* the
//! program are ROADMAP item 2; these sit at the layer boundary, recorded
//! from the benchmark's own files.

use crate::json::Json;
use std::time::Instant;

/// Which of the repetition's clocks a call is booked to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Graph + weight generation, partition / cost-model construction,
    /// engine load, server construction: `setup_s`.
    Setup,
    /// `run` / `run_pending` / `submit` / `take`: `wall_s`.
    Timed,
    /// Reference checks and counter read-out: on no clock.
    Untimed,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub attrs: Vec<(&'static str, String)>,
}

pub struct Stopwatch {
    origin: Instant,
    record: bool,
    open: Vec<usize>,
    last_closed: Option<usize>,
    pub spans: Vec<Span>,
    pub setup_s: f64,
    pub wall_s: f64,
    /// Host seconds of every timed call, by span name, in call order.
    /// Kept with recording off too: two clock reads per call is the
    /// harness's whole cost either way.
    pub calls: Vec<(&'static str, f64)>,
}

impl Stopwatch {
    pub fn new(record: bool) -> Self {
        Self {
            origin: Instant::now(),
            record,
            open: Vec::new(),
            last_closed: None,
            spans: Vec::new(),
            setup_s: 0.0,
            wall_s: 0.0,
            calls: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` and book it to `phase`.
    pub fn call<T>(&mut self, phase: Phase, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = self.record.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                attrs: Vec::new(),
            });
            self.spans.len() - 1
        });
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let seconds = (end - start) as f64 * 1e-9;
        match phase {
            Phase::Setup => self.setup_s += seconds,
            Phase::Timed => self.wall_s += seconds,
            Phase::Untimed => {}
        }
        if phase != Phase::Untimed {
            self.calls.push((name, seconds));
        }
        if let Some(i) = index {
            self.spans[i].start_ns = start;
            self.spans[i].end_ns = end;
        }
        self.last_closed = index;
        out
    }

    /// Open a grouping span (a repetition, a wave) that books no time of
    /// its own; close it with [`leave`](Self::leave).
    pub fn enter(&mut self, name: &'static str) {
        if self.record {
            self.spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.last().copied(),
                attrs: Vec::new(),
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    pub fn leave(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
            self.last_closed = Some(i);
        }
    }

    /// Attach an attribute (program, source, `sim_ns`, ...) to the span
    /// that closed last. Free with recording off: `value` is not even
    /// formatted.
    pub fn attr(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(i) = self.last_closed {
            self.spans[i].attrs.push((key, value.to_string()));
        }
    }

    /// Host seconds of every timed call named `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.calls
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, s)| s)
            .collect()
    }
}

/// Chrome-trace ("Trace Event Format") document of one traced
/// repetition: complete events (`ph: "X"`), microsecond timestamps, the
/// span tree carried in `args.id` / `args.parent`. Loads in
/// `chrome://tracing` and Perfetto.
pub fn chrome_trace(workload: &str, repetition: u32, spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut args = vec![
                ("id".to_string(), Json::Num(id as f64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("workload".to_string(), Json::str(workload)),
                ("repetition".to_string(), Json::Num(f64::from(repetition))),
            ];
            args.extend(s.attrs.iter().map(|(k, v)| (k.to_string(), Json::str(v))));
            Json::obj(vec![
                ("name", Json::str(s.name)),
                ("cat", Json::str(workload)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                ("args", Json::Obj(args)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_book_to_their_own_clocks() {
        let mut sw = Stopwatch::new(false);
        let spin = || std::hint::black_box((0..20_000u64).sum::<u64>());
        sw.call(Phase::Setup, "graph.generate", spin);
        sw.call(Phase::Timed, "core.engine.run", spin);
        sw.call(Phase::Timed, "core.engine.run", spin);
        sw.call(Phase::Untimed, "verify.reference", spin);
        assert!(sw.setup_s > 0.0 && sw.wall_s > 0.0);
        assert_eq!(sw.seconds_of("core.engine.run").len(), 2);
        assert!(sw.seconds_of("verify.reference").is_empty());
        let booked: f64 = sw.calls.iter().map(|&(_, s)| s).sum();
        assert!((booked - sw.setup_s - sw.wall_s).abs() < 1e-12);
        assert!(sw.spans.is_empty(), "recording is off");
        sw.attr("ignored", 1);
    }

    #[test]
    fn recorded_spans_nest_and_export_as_chrome_trace() {
        let mut sw = Stopwatch::new(true);
        sw.enter("repetition");
        sw.call(Phase::Timed, "core.engine.run", || ());
        sw.attr("program", "bfs");
        sw.attr("sim_ns", 4_256_123u64);
        sw.leave();
        assert_eq!(sw.spans.len(), 2);
        assert_eq!(sw.spans[1].parent, Some(0));
        assert!(sw.spans[0].end_ns >= sw.spans[1].end_ns);
        assert_eq!(sw.spans[1].attrs[1], ("sim_ns", "4256123".to_string()));

        let doc = chrome_trace("zc-aligned", 6, &sw.spans);
        let parsed = crate::json::parse(&doc.pretty()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        let run = &events[1];
        assert_eq!(run.get("ph").unwrap().as_str(), Some("X"));
        let args = run.get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(args.get("program").unwrap().as_str(), Some("bfs"));
        assert_eq!(args.get("workload").unwrap().as_str(), Some("zc-aligned"));
    }
}

//! In-memory spans recorded by the harness around its calls into each
//! layer, written out at the end as a Chrome-trace JSON that
//! `ui.perfetto.dev` loads.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed (or still open) span: name, start, end and the span that
/// was open when it began.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// A span recorder. When off, `begin`/`end` cost nothing but a branch and
/// record nothing, so untraced runs pay no tracing cost.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans { on, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str) {
        if !self.on {
            return;
        }
        let now = Instant::now();
        let parent = self.open.last().map(|&(id, _)| id);
        let start = now - self.t0;
        self.spans.push(Span { name: name.to_owned(), start, end: start, parent });
        self.open.push((self.spans.len() - 1, now));
    }

    /// Closes the innermost open span and returns its duration (zero when
    /// the recorder is off).
    pub fn end(&mut self) -> Duration {
        if !self.on {
            return Duration::ZERO;
        }
        let (id, started) = self.open.pop().expect("end() without a matching begin()");
        let now = Instant::now();
        self.spans[id].end = now - self.t0;
        now - started
    }

    /// Chrome trace-event JSON: one complete (`ph: X`) event per span on a
    /// single thread track, so nesting follows time containment; each
    /// event carries its own id and its parent's.
    pub fn to_chrome_json(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let ts = sp.start.as_secs_f64() * 1e6;
            let dur = (sp.end - sp.start).as_secs_f64() * 1e6;
            let parent = sp.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"name\":{},\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                json_str(&sp.name)
            );
        }
        s.push_str("]}");
        s
    }
}

/// A JSON string literal.
pub fn json_str(raw: &str) -> String {
    let mut s = String::with_capacity(raw.len() + 2);
    s.push('"');
    for c in raw.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut sp = Spans::new(true);
        sp.begin("outer");
        sp.begin("inner");
        sp.end();
        sp.end();
        assert_eq!(sp.spans[0].parent, None);
        assert_eq!(sp.spans[1].parent, Some(0));
        assert!(sp.spans[1].end <= sp.spans[0].end);
        let json = sp.to_chrome_json();
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut sp = Spans::new(false);
        sp.begin("x");
        assert_eq!(sp.end(), Duration::ZERO);
        assert!(sp.spans.is_empty());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}

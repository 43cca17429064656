//! The benchmark's own spans: recorded around its calls into the runtime,
//! kept in memory, written out when the traced run ends.

use crate::json::Json;
use std::time::Instant;

/// One timed interval. `parent` is the index of the enclosing span in the
/// same log; spans of one request share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// A span recorder owned by one thread. Off (the untraced run) it records
/// nothing and `time` is a plain call.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, on: bool) -> SpanLog {
        SpanLog {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    /// A second log on the same clock, for another thread; `absorb` it
    /// back when the thread is joined.
    pub fn sibling(&self) -> SpanLog {
        SpanLog::new(self.epoch, self.on)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`SpanLog::close`]. Returns its index
    /// for use as a `parent` (a dummy 0 when the log is off).
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        if !self.on {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, idx: usize) {
        if self.on {
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(name, parent, request);
        let out = f();
        self.close(idx);
        out
    }

    /// [`SpanLog::time`] for a sampled request: a plain call unless `keep`.
    pub fn time_if<T>(
        &mut self,
        keep: bool,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        if keep {
            self.time(name, parent, request, f)
        } else {
            f()
        }
    }

    /// Append another thread's spans, keeping their parent links valid.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::from);
                    Json::obj([
                        ("name", s.name.into()),
                        ("start_ns", s.start_ns.into()),
                        ("end_ns", s.end_ns.into()),
                        ("parent", opt(s.parent.map(|p| p as u64))),
                        ("request_id", opt(s.request)),
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
    fn off_log_records_nothing_and_still_runs_the_body() {
        let mut log = SpanLog::new(Instant::now(), false);
        assert_eq!(log.time("x", None, None, || 7), 7);
        assert_eq!(log.to_json(), Json::Arr(Vec::new()));
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let mut a = SpanLog::new(Instant::now(), true);
        let root = a.open("unit", None, None);
        a.time("send_action", Some(root), Some(9), || ());
        a.close(root);
        let mut b = a.sibling();
        let unit = b.open("unit", None, None);
        b.time("wait", Some(unit), Some(9), || ());
        b.close(unit);
        a.absorb(b);
        assert_eq!(a.spans.len(), 4);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.spans[1].parent, Some(0));
        assert_eq!(a.durations_ns("wait").len(), 1);
        assert!(a.spans[0].end_ns >= a.spans[1].end_ns);
    }
}

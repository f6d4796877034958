//! Benchmark-side spans: recorded around each call into a layer, kept
//! in memory, written out when the run ends. Nothing inside the program
//! is instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

use ct_obs::json::JsonObject;

/// One recorded interval. Spans of one operation share `op`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    pub op: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` while tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Per-name totals: how often a span ran, its total time and the time
/// not covered by its child spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    /// A tracer that records nothing: `begin`/`end` cost one branch.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Operation id stamped on spans begun from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.t0.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id as usize].end_ns = now;
    }

    /// Durations (ns) of every closed span called `name`, in order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Count, total and self time per span name. Children of one span
    /// never overlap (one thread records them), so self time is the
    /// span's duration minus the sum of its children's.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// `{"spans":[{name,start_ns,end_ns,parent,op}, …]}`.
    pub fn to_json(&self) -> String {
        let spans = self.spans.iter().map(|s| {
            let mut o = JsonObject::new();
            o.field_str("name", s.name)
                .field_u64("start_ns", s.start_ns)
                .field_u64("end_ns", s.end_ns);
            match s.parent {
                Some(p) => o.field_u64("parent", u64::from(p)),
                None => o.field_null("parent"),
            };
            o.field_u64("op", s.op);
            o.finish()
        });
        format!("{{\"spans\":{}}}", crate::run::json_array(spans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let a = t.begin("op");
        t.end(a);
        assert!(t.totals().is_empty());
        assert_eq!(t.to_json(), "{\"spans\":[]}");
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::on();
        t.set_op(7);
        let op = t.begin("op");
        let run = t.begin("run");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(run);
        let verify = t.begin("verify");
        t.end(verify);
        t.end(op);
        let totals = t.totals();
        let (op, run, verify) = (totals["op"], totals["run"], totals["verify"]);
        assert_eq!((op.count, run.count, verify.count), (1, 1, 1));
        assert_eq!(op.self_ns, op.total_ns - run.total_ns - verify.total_ns);
        assert_eq!(run.self_ns, run.total_ns);
        assert!(run.total_ns >= 2_000_000);
        let json = ct_analyze::Value::parse(&t.to_json()).expect("valid JSON");
        let spans = json.get("spans").and_then(|s| s.as_arr()).expect("array");
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(spans[1].get("op").and_then(|p| p.as_u64()), Some(7));
    }
}

//! Bounded event ring buffer and Chrome `trace_event` export.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::event::{EventKind, Scope, TraceRecord};

/// Default ring capacity: ample for every smoke/quick-scale run in the
/// workspace (the regression suite asserts nothing was dropped).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// Capacity the Chrome export reserves per line: the mean line of a
/// stall-dense run (`membound-observed`) is about 87 bytes, so the output
/// `String` rarely has to grow.
const LINE_BYTES: usize = 88;

/// A bounded, drop-oldest ring of [`TraceRecord`]s.
///
/// The buffer preserves insertion order — which, for a single simulation,
/// is simulation order — and counts records it had to drop, so consumers
/// can tell a complete trace from a truncated one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceBuffer {
    capacity: usize,
    records: VecDeque<TraceRecord>,
    dropped: u64,
}

impl TraceBuffer {
    /// A buffer holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be at least 1");
        TraceBuffer {
            capacity,
            records: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Appends a record, evicting the oldest if the ring is full.
    pub fn push(&mut self, record: TraceRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// True when every emitted record is still present.
    pub fn is_complete(&self) -> bool {
        self.dropped == 0
    }

    /// Iterates retained records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of retained records of the given kind.
    pub fn count_kind(&self, kind: EventKind) -> usize {
        self.iter().filter(|r| r.kind == kind).count()
    }

    /// Sums gated residency per core from `SleepEnter`/`SleepExit` pairs.
    ///
    /// This is the trace side of the workspace's load-bearing cross-check:
    /// on a complete trace the per-core sums reconcile exactly with the
    /// controller's `gated_cycles` total. Unpaired events (possible only
    /// on a truncated trace) are ignored.
    pub fn gated_cycles_per_core(&self) -> BTreeMap<u32, u64> {
        let mut open: BTreeMap<u32, u64> = BTreeMap::new();
        let mut totals: BTreeMap<u32, u64> = BTreeMap::new();
        for record in self.iter() {
            let Scope::Core(core) = record.scope else {
                continue;
            };
            match record.kind {
                EventKind::SleepEnter => {
                    open.insert(core, record.at);
                }
                EventKind::SleepExit => {
                    if let Some(entered) = open.remove(&core) {
                        *totals.entry(core).or_insert(0) += record.at.saturating_sub(entered);
                    }
                }
                _ => {}
            }
        }
        totals
    }

    /// Renders the buffer as Chrome `trace_event` JSON (the "JSON array
    /// format" with a `traceEvents` wrapper), loadable in Perfetto and
    /// `chrome://tracing`.
    ///
    /// Timestamps map cycles to microseconds one-to-one (1 cyc = 1 µs on
    /// the viewer's axis); cores, DRAM banks, and the controller render as
    /// separate named processes. Output is deterministic: records appear
    /// in insertion order, metadata in sorted scope order. Every line is
    /// written straight into the one output `String`, so the export
    /// allocates nothing per record.
    pub fn to_chrome_trace(&self) -> String {
        let mut scopes: BTreeSet<Scope> = BTreeSet::new();
        let mut last = None;
        for record in self.iter() {
            if last != Some(record.scope) {
                last = Some(record.scope);
                scopes.insert(record.scope);
            }
        }

        // One line per record, per scope and per process (at most three).
        let lines = self.len() + scopes.len() + 3;
        let mut out = String::with_capacity(64 + lines * LINE_BYTES);
        out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        // Every line but the first is preceded by ",\n".
        let mut separator = "";
        let mut line = |out: &mut String| {
            out.push_str(separator);
            out.push_str("  ");
            separator = ",\n";
        };

        let mut last_pid = None;
        for &scope in &scopes {
            let (pid, tid, process) = scope_ids(scope);
            // Scopes sort by kind first, so each pid's scopes are adjacent.
            if last_pid != Some(pid) {
                last_pid = Some(pid);
                line(&mut out);
                out.push_str("{\"ph\": \"M\", \"pid\": ");
                push_u64(&mut out, pid.into());
                out.push_str(", \"name\": \"process_name\", \"args\": {\"name\": \"");
                out.push_str(process);
                out.push_str("\"}}");
            }
            line(&mut out);
            out.push_str("{\"ph\": \"M\", \"pid\": ");
            push_u64(&mut out, pid.into());
            out.push_str(", \"tid\": ");
            push_u64(&mut out, tid.into());
            out.push_str(", \"name\": \"thread_name\", \"args\": {\"name\": \"");
            match scope {
                Scope::Core(id) => {
                    out.push_str("core ");
                    push_u64(&mut out, id.into());
                }
                Scope::Bank(id) => {
                    out.push_str("bank ");
                    push_u64(&mut out, id.into());
                }
                Scope::Global => out.push_str("safe-mode"),
            }
            out.push_str("\"}}");
        }

        for record in self.iter() {
            let (pid, tid, _) = scope_ids(record.scope);
            let (phase, tail) = if record.kind.is_span_begin() {
                ("B", "\"}")
            } else if record.kind.is_span_end() {
                ("E", "\"}")
            } else {
                ("i", "\", \"s\": \"t\"}")
            };
            line(&mut out);
            out.push_str("{\"ph\": \"");
            out.push_str(phase);
            out.push_str("\", \"ts\": ");
            push_u64(&mut out, record.at);
            out.push_str(", \"pid\": ");
            push_u64(&mut out, pid.into());
            out.push_str(", \"tid\": ");
            push_u64(&mut out, tid.into());
            out.push_str(", \"cat\": \"mapg\", \"name\": \"");
            out.push_str(record.kind.name());
            out.push_str(tail);
        }

        out.push_str("\n]}\n");
        out
    }
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::new(DEFAULT_TRACE_CAPACITY)
    }
}

/// Maps a scope onto (pid, tid, process name) for the Chrome trace: cores
/// are pid 1, DRAM banks pid 2, the controller pid 3.
fn scope_ids(scope: Scope) -> (u32, u32, &'static str) {
    match scope {
        Scope::Core(id) => (1, id, "cores"),
        Scope::Bank(id) => (2, id, "dram"),
        Scope::Global => (3, 0, "controller"),
    }
}

/// Appends the decimal digits of `n` without going through `fmt`.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FaultKind;

    fn rec(at: u64, scope: Scope, kind: EventKind) -> TraceRecord {
        TraceRecord { at, scope, kind }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut buf = TraceBuffer::new(2);
        buf.push(rec(1, Scope::Core(0), EventKind::StallBegin));
        buf.push(rec(2, Scope::Core(0), EventKind::StallEnd));
        assert!(buf.is_complete());
        buf.push(rec(3, Scope::Core(0), EventKind::StallBegin));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 1);
        assert!(!buf.is_complete());
        assert_eq!(buf.iter().next().unwrap().at, 2, "oldest record evicted");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _ = TraceBuffer::new(0);
    }

    #[test]
    fn gated_cycles_sum_per_core() {
        let mut buf = TraceBuffer::default();
        buf.push(rec(10, Scope::Core(0), EventKind::SleepEnter));
        buf.push(rec(40, Scope::Core(0), EventKind::SleepExit));
        buf.push(rec(50, Scope::Core(1), EventKind::SleepEnter));
        buf.push(rec(55, Scope::Core(1), EventKind::SleepExit));
        buf.push(rec(60, Scope::Core(0), EventKind::SleepEnter));
        buf.push(rec(100, Scope::Core(0), EventKind::SleepExit));
        // Bank / unpaired records do not contribute.
        buf.push(rec(
            5,
            Scope::Bank(0),
            EventKind::FaultInjected(FaultKind::DramSpike),
        ));
        buf.push(rec(200, Scope::Core(2), EventKind::SleepExit));
        let per_core = buf.gated_cycles_per_core();
        assert_eq!(per_core.get(&0), Some(&70));
        assert_eq!(per_core.get(&1), Some(&5));
        assert_eq!(per_core.get(&2), None);
    }

    #[test]
    fn chrome_trace_is_wellformed_and_deterministic() {
        let mut buf = TraceBuffer::default();
        buf.push(rec(10, Scope::Core(0), EventKind::StallBegin));
        buf.push(rec(
            12,
            Scope::Bank(1),
            EventKind::FaultInjected(FaultKind::DramSpike),
        ));
        buf.push(rec(20, Scope::Core(0), EventKind::StallEnd));
        buf.push(rec(30, Scope::Global, EventKind::SafeModeEnter));
        buf.push(rec(90, Scope::Global, EventKind::SafeModeExit));
        let json = buf.to_chrome_trace();
        assert_eq!(json, buf.to_chrome_trace(), "rendering must be stable");
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.ends_with("]}\n"));
        for needle in [
            "\"traceEvents\"",
            "\"process_name\"",
            "\"name\": \"cores\"",
            "\"name\": \"dram\"",
            "\"name\": \"controller\"",
            "\"ph\": \"B\", \"ts\": 10",
            "\"ph\": \"E\", \"ts\": 20",
            "\"ph\": \"i\", \"ts\": 12",
            "\"name\": \"dram-spike\"",
            "\"name\": \"safe-mode\"",
        ] {
            assert!(json.contains(needle), "missing '{needle}' in: {json}");
        }
        let doc = crate::json::parse(&json).unwrap();
        assert!(
            matches!(
                doc.get("traceEvents"),
                Some(crate::json::JsonValue::Array(_))
            ),
            "{json}"
        );
    }

    /// A buffer touching every event kind, fault kind and scope, with a
    /// multi-digit tid and the largest timestamp.
    fn every_kind_buffer() -> TraceBuffer {
        let mut buf = TraceBuffer::default();
        let core = Scope::Core(0);
        let wide = Scope::Core(12);
        for (at, scope, kind) in [
            (10, core, EventKind::StallBegin),
            (12, wide, EventKind::StallBegin),
            (14, core, EventKind::SleepEnter),
            (15, wide, EventKind::TokenDeny),
            (16, Scope::Global, EventKind::SafeModeEnter),
            (40, core, EventKind::SleepExit),
            (40, core, EventKind::TokenGrant),
            (41, core, EventKind::WakeStart),
            (47, core, EventKind::WakeDone),
            (48, core, EventKind::StallEnd),
            (
                50,
                Scope::Bank(3),
                EventKind::FaultInjected(FaultKind::DramSpike),
            ),
            (51, wide, EventKind::FaultInjected(FaultKind::SlowWake)),
            (52, wide, EventKind::FaultInjected(FaultKind::TokenDrop)),
            (53, wide, EventKind::FaultInjected(FaultKind::BrownoutVeto)),
            (
                54,
                Scope::Global,
                EventKind::FaultInjected(FaultKind::Brownout),
            ),
            (
                55,
                Scope::Bank(10),
                EventKind::FaultInjected(FaultKind::SensorNoise),
            ),
            (90, Scope::Global, EventKind::SafeModeExit),
            (u64::MAX, wide, EventKind::StallEnd),
        ] {
            buf.push(rec(at, scope, kind));
        }
        buf
    }

    #[test]
    fn chrome_trace_bytes_are_pinned() {
        // The exporter's byte contract: traces already written must stay
        // comparable with new ones, so never re-capture this literal to
        // make an exporter change pass.
        let expected = r#"{"displayTimeUnit": "ms", "traceEvents": [
  {"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "cores"}},
  {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name", "args": {"name": "core 0"}},
  {"ph": "M", "pid": 1, "tid": 12, "name": "thread_name", "args": {"name": "core 12"}},
  {"ph": "M", "pid": 2, "name": "process_name", "args": {"name": "dram"}},
  {"ph": "M", "pid": 2, "tid": 3, "name": "thread_name", "args": {"name": "bank 3"}},
  {"ph": "M", "pid": 2, "tid": 10, "name": "thread_name", "args": {"name": "bank 10"}},
  {"ph": "M", "pid": 3, "name": "process_name", "args": {"name": "controller"}},
  {"ph": "M", "pid": 3, "tid": 0, "name": "thread_name", "args": {"name": "safe-mode"}},
  {"ph": "B", "ts": 10, "pid": 1, "tid": 0, "cat": "mapg", "name": "stall"},
  {"ph": "B", "ts": 12, "pid": 1, "tid": 12, "cat": "mapg", "name": "stall"},
  {"ph": "B", "ts": 14, "pid": 1, "tid": 0, "cat": "mapg", "name": "gated"},
  {"ph": "i", "ts": 15, "pid": 1, "tid": 12, "cat": "mapg", "name": "token-deny", "s": "t"},
  {"ph": "B", "ts": 16, "pid": 3, "tid": 0, "cat": "mapg", "name": "safe-mode"},
  {"ph": "E", "ts": 40, "pid": 1, "tid": 0, "cat": "mapg", "name": "gated"},
  {"ph": "i", "ts": 40, "pid": 1, "tid": 0, "cat": "mapg", "name": "token-grant", "s": "t"},
  {"ph": "B", "ts": 41, "pid": 1, "tid": 0, "cat": "mapg", "name": "wake"},
  {"ph": "E", "ts": 47, "pid": 1, "tid": 0, "cat": "mapg", "name": "wake"},
  {"ph": "E", "ts": 48, "pid": 1, "tid": 0, "cat": "mapg", "name": "stall"},
  {"ph": "i", "ts": 50, "pid": 2, "tid": 3, "cat": "mapg", "name": "dram-spike", "s": "t"},
  {"ph": "i", "ts": 51, "pid": 1, "tid": 12, "cat": "mapg", "name": "slow-wake", "s": "t"},
  {"ph": "i", "ts": 52, "pid": 1, "tid": 12, "cat": "mapg", "name": "token-drop", "s": "t"},
  {"ph": "i", "ts": 53, "pid": 1, "tid": 12, "cat": "mapg", "name": "brownout-veto", "s": "t"},
  {"ph": "i", "ts": 54, "pid": 3, "tid": 0, "cat": "mapg", "name": "brownout", "s": "t"},
  {"ph": "i", "ts": 55, "pid": 2, "tid": 10, "cat": "mapg", "name": "sensor-noise", "s": "t"},
  {"ph": "E", "ts": 90, "pid": 3, "tid": 0, "cat": "mapg", "name": "safe-mode"},
  {"ph": "E", "ts": 18446744073709551615, "pid": 1, "tid": 12, "cat": "mapg", "name": "stall"}
]}
"#;
        assert_eq!(every_kind_buffer().to_chrome_trace(), expected);
        assert_eq!(
            TraceBuffer::new(1).to_chrome_trace(),
            "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n\n]}\n"
        );
    }

    #[test]
    fn default_capacity_is_large() {
        assert_eq!(TraceBuffer::default().capacity(), DEFAULT_TRACE_CAPACITY);
    }
}

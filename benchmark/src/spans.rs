//! Spans recorded by the benchmark's own wrappers around the calls into
//! each layer: `op` (workload loop) -> `dispatch` (an `OcallDispatcher`
//! wrapper around the runtime) -> `host_fn` (a `HostFn` wrapper in the
//! `OcallTable`, timed on whichever thread runs it); for the DES,
//! `repeat` -> `sim`. Spans stay in memory and are written out when the
//! run ends. Spans *inside* the crates are a later issue.
//!
//! Recording must not add traffic between the caller's and the worker's
//! cores, or the traced run measures the tracer: everything the caller
//! writes per op sits on cache lines the worker never touches, and a
//! `host_fn` span learns its parent from a spare argument slot of the
//! request instead of from shared memory.

use crate::json::Json;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use switchless_core::{
    CallPath, FuncId, OcallDispatcher, OcallRequest, OcallTable, SwitchlessError, MAX_OCALL_ARGS,
};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// One op of a real-thread workload loop.
    Op,
    /// One `OcallDispatcher::dispatch` issued by that op.
    Dispatch,
    /// The host function that dispatch ran.
    HostFn,
    /// One DES repeat.
    Repeat,
    /// One `zc_des::run` / `run_fleet` inside a repeat.
    Sim,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Op => "op",
            SpanKind::Dispatch => "dispatch",
            SpanKind::HostFn => "host_fn",
            SpanKind::Repeat => "repeat",
            SpanKind::Sim => "sim",
        }
    }
}

/// `tag` of a dispatch span: the path it took.
pub const TAG_PATHS: [&str; 4] = ["switchless", "fallback", "regular", "error"];

/// Index of a call path in the per-class arrays and span tags.
#[must_use]
pub fn path_tag(path: CallPath) -> u8 {
    match path {
        CallPath::Switchless => 0,
        CallPath::Fallback => 1,
        CallPath::Regular => 2,
    }
}

/// One recorded span (32 bytes; a nop run records ~10^7 of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start, ns since the log was created.
    pub start_ns: u64,
    /// Duration in ns (saturating at ~4.29 s).
    pub dur_ns: u32,
    /// Unique id (`host_fn` spans are numbered apart, top bit set).
    pub id: u32,
    /// Id of the span that caused this one (0 = root).
    pub parent: u32,
    /// Id shared by every span of one op / repeat.
    pub op: u32,
    /// What it covers.
    pub kind: SpanKind,
    /// Dispatch: index into [`TAG_PATHS`]. Sim: index of the mechanism.
    pub tag: u8,
}

/// The span an op / repeat opened; closing it records the span.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u32,
    op: u32,
}

/// Argument slot a traced dispatch uses to tell the host-function
/// wrapper which span caused it (`op << 32 | dispatch id`). The
/// benchmark's host functions take at most three arguments; the wrapper
/// clears the slot before the real function sees the request.
const LINK_ARG: usize = MAX_OCALL_ARGS - 1;

/// Set in the id of every `host_fn` span, so the two threads number their
/// spans without sharing a counter.
const HOST_FN_ID: u32 = 1 << 31;

/// What the caller thread writes on every op, on cache lines of its own.
#[derive(Debug)]
#[repr(align(128))]
struct CallerSide {
    next_id: AtomicU32,
    next_op: AtomicU32,
    current_op: AtomicU32,
    current_root: AtomicU32,
    /// Spans closed on the caller thread, in closing order (an op's
    /// dispatches precede the op itself).
    spans: Mutex<Vec<Span>>,
}

/// `host_fn` spans, in execution order: written by whichever thread runs
/// the host function (the worker, or the caller on a fallback).
#[derive(Debug)]
#[repr(align(128))]
struct HostSide {
    spans: Mutex<Vec<Span>>,
}

/// In-memory span log shared by the caller thread and the host-function
/// wrappers.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    enabled: AtomicBool,
    caller: CallerSide,
    host: HostSide,
}

impl SpanLog {
    /// Empty, disabled log.
    #[must_use]
    pub fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            caller: CallerSide {
                next_id: AtomicU32::new(1),
                next_op: AtomicU32::new(1),
                current_op: AtomicU32::new(0),
                current_root: AtomicU32::new(0),
                spans: Mutex::new(Vec::with_capacity(1 << 20)),
            },
            host: HostSide {
                spans: Mutex::new(Vec::with_capacity(1 << 20)),
            },
        })
    }

    /// Record from now on (set-up and warm-up run with the log off).
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Release);
    }

    /// Stop recording (the timed window is over).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    fn on(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Next span id of the caller thread (only that thread asks).
    fn id(&self) -> u32 {
        self.caller.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn span(
        &self,
        kind: SpanKind,
        id: u32,
        parent: u32,
        op: u32,
        tag: u8,
        t: (Instant, Instant),
    ) -> Span {
        Span {
            start_ns: t.0.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: u32::try_from(t.1.duration_since(t.0).as_nanos()).unwrap_or(u32::MAX),
            id,
            parent,
            op,
            kind,
            tag,
        }
    }

    fn push_caller(&self, span: Span) {
        self.caller
            .spans
            .lock()
            .expect("span log poisoned by a panicking recorder")
            .push(span);
    }

    /// Open the root span of one op / repeat.
    pub fn begin(&self) -> Open {
        let open = Open {
            id: self.id(),
            op: self.caller.next_op.fetch_add(1, Ordering::Relaxed),
        };
        self.caller.current_op.store(open.op, Ordering::Relaxed);
        self.caller.current_root.store(open.id, Ordering::Relaxed);
        open
    }

    /// Close a root span (`kind` is `Op` or `Repeat`).
    pub fn end(&self, open: Open, kind: SpanKind, start: Instant, end: Instant) {
        if self.on() {
            self.push_caller(self.span(kind, open.id, 0, open.op, 0, (start, end)));
        }
    }

    /// Record a child of the current root, closed on the caller thread
    /// (a DES `sim` span).
    pub fn child(&self, kind: SpanKind, tag: u8, start: Instant, end: Instant) {
        if self.on() {
            let parent = self.caller.current_root.load(Ordering::Relaxed);
            let op = self.caller.current_op.load(Ordering::Relaxed);
            self.push_caller(self.span(kind, self.id(), parent, op, tag, (start, end)));
        }
    }

    /// Take every span recorded so far: caller-thread spans, then host
    /// spans. The log is left empty.
    #[must_use]
    pub fn take(&self) -> (Vec<Span>, Vec<Span>) {
        let caller = std::mem::take(&mut *self.caller.spans.lock().expect("span log poisoned"));
        let host = std::mem::take(&mut *self.host.spans.lock().expect("span log poisoned"));
        (caller, host)
    }
}

/// `OcallDispatcher` wrapper recording one `dispatch` span per call.
pub struct TracedDispatcher<'a> {
    inner: &'a dyn OcallDispatcher,
    log: Arc<SpanLog>,
}

impl<'a> TracedDispatcher<'a> {
    /// Wrap `inner`.
    #[must_use]
    pub fn new(inner: &'a dyn OcallDispatcher, log: Arc<SpanLog>) -> Self {
        TracedDispatcher { inner, log }
    }
}

impl OcallDispatcher for TracedDispatcher<'_> {
    fn dispatch(
        &self,
        req: &OcallRequest,
        payload_in: &[u8],
        payload_out: &mut Vec<u8>,
    ) -> Result<(i64, CallPath), SwitchlessError> {
        if !self.log.on() {
            return self.inner.dispatch(req, payload_in, payload_out);
        }
        let id = self.log.id();
        let parent = self.log.caller.current_root.load(Ordering::Relaxed);
        let op = self.log.caller.current_op.load(Ordering::Relaxed);
        let mut linked = *req;
        linked.args[LINK_ARG] = u64::from(op) << 32 | u64::from(id);
        let start = Instant::now();
        let result = self.inner.dispatch(&linked, payload_in, payload_out);
        let end = Instant::now();
        let tag = result.as_ref().map_or(3, |(_, path)| path_tag(*path));
        let span = self
            .log
            .span(SpanKind::Dispatch, id, parent, op, tag, (start, end));
        self.log.push_caller(span);
        result
    }
}

/// Re-register every function of `inner` behind a wrapper that records a
/// `host_fn` span on the thread that executes it, for calls a
/// [`TracedDispatcher`] linked. Function ids are preserved (ids are
/// registration order).
#[must_use]
pub fn traced_table(inner: OcallTable, log: &Arc<SpanLog>) -> OcallTable {
    let inner = Arc::new(inner);
    let mut outer = OcallTable::new();
    for i in 0..inner.len() {
        let func = FuncId(i as u16);
        let name = inner.name(func).unwrap_or("<anonymous>").to_string();
        let (inner, log) = (Arc::clone(&inner), Arc::clone(log));
        outer.register(
            name,
            move |args: &[u64; MAX_OCALL_ARGS], pin: &[u8], pout: &mut Vec<u8>| {
                let link = args[LINK_ARG];
                let mut request = OcallRequest::new(func, args);
                request.args[LINK_ARG] = 0;
                let start = Instant::now();
                let ret = inner
                    .invoke(&request, pin, pout)
                    .expect("wrapper is registered for an id the inner table has");
                if link != 0 && log.on() {
                    let end = Instant::now();
                    let (op, parent) = ((link >> 32) as u32, link as u32);
                    let mut spans = log
                        .host
                        .spans
                        .lock()
                        .expect("span log poisoned by a panicking recorder");
                    let id = HOST_FN_ID | (spans.len() as u32 + 1);
                    let span = log.span(SpanKind::HostFn, id, parent, op, 0, (start, end));
                    spans.push(span);
                }
                ret
            },
        );
    }
    outer
}

/// A span's self time: its duration minus what its children cover.
#[must_use]
pub fn self_ns(dur_ns: u64, children_ns: u64) -> u64 {
    dur_ns.saturating_sub(children_ns)
}

/// Totals over a span log, and whether every op is fully covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSummary {
    /// Root spans (`op` / `repeat`).
    pub roots: u64,
    /// `dispatch` / `sim` spans.
    pub children: u64,
    /// `host_fn` spans.
    pub host_fns: u64,
    /// Summed root durations.
    pub root_ns: u64,
    /// Summed self time of roots (duration - their children).
    pub root_self_ns: u64,
    /// Summed `dispatch` / `sim` durations.
    pub child_ns: u64,
    /// Summed self time of dispatches (duration - their host_fn).
    pub child_self_ns: u64,
    /// Summed `host_fn` durations.
    pub host_fn_ns: u64,
    /// Roots with no child span.
    pub roots_without_child: u64,
    /// Children whose parent is not the root that closed after them.
    pub orphan_children: u64,
    /// Dispatches with no matching `host_fn` span (or host_fns whose
    /// parent is no recorded dispatch).
    pub unmatched_host_fns: u64,
}

/// Walk the two logs once. Relies on closing order: an op's dispatches
/// precede the op on the caller log, and host functions run in dispatch
/// order. `expect_host_fn` is false for the DES (`sim` has no child).
#[must_use]
pub fn summarise(caller: &[Span], host: &[Span], expect_host_fn: bool) -> SpanSummary {
    let mut s = SpanSummary::default();
    let mut host_iter = host.iter().peekable();
    let mut pending: Vec<&Span> = Vec::new();
    for span in caller {
        match span.kind {
            SpanKind::Dispatch | SpanKind::Sim => {
                s.children += 1;
                s.child_ns += u64::from(span.dur_ns);
                let mut inner = 0;
                if expect_host_fn {
                    match host_iter.peek() {
                        Some(h) if h.parent == span.id => {
                            inner = u64::from(h.dur_ns);
                            s.host_fns += 1;
                            s.host_fn_ns += inner;
                            host_iter.next();
                        }
                        _ => s.unmatched_host_fns += 1,
                    }
                }
                s.child_self_ns += self_ns(u64::from(span.dur_ns), inner);
                pending.push(span);
            }
            SpanKind::Op | SpanKind::Repeat => {
                s.roots += 1;
                s.root_ns += u64::from(span.dur_ns);
                if pending.is_empty() {
                    s.roots_without_child += 1;
                }
                let mut covered = 0;
                for child in pending.drain(..) {
                    if child.parent == span.id && child.op == span.op {
                        covered += u64::from(child.dur_ns);
                    } else {
                        s.orphan_children += 1;
                    }
                }
                s.root_self_ns += self_ns(u64::from(span.dur_ns), covered);
            }
            SpanKind::HostFn => {}
        }
    }
    // Dispatches closed after the last root, and host spans nobody claimed.
    s.orphan_children += pending.len() as u64;
    s.unmatched_host_fns += host_iter.count() as u64;
    s
}

/// `true` when every root has its children and every dispatch its host
/// function.
#[must_use]
pub fn fully_covered(s: &SpanSummary) -> bool {
    s.roots > 0 && s.roots_without_child == 0 && s.orphan_children == 0 && s.unmatched_host_fns == 0
}

/// JSON lines of every span of the leading ops, whole ops only, until
/// about `max_spans` spans are written, after a header line carrying the
/// totals (a full nop trace would be gigabytes of text; the coverage
/// check runs over the whole in-memory log).
#[must_use]
pub fn to_jsonl(
    workload: &str,
    caller: &[Span],
    host: &[Span],
    max_spans: usize,
    mechanisms: &[&str],
) -> String {
    let total = caller.len() + host.len();
    // Roots close after their children, so the root at the budget mark
    // names the last op that is written whole. Every dispatch has one
    // host span, hence the budget is split between the two logs.
    let last_op = caller
        .iter()
        .skip(max_spans / 2)
        .find(|s| matches!(s.kind, SpanKind::Op | SpanKind::Repeat))
        .map_or(u32::MAX, |s| s.op);
    let mut kept: Vec<&Span> = caller
        .iter()
        .chain(host.iter())
        .filter(|s| s.op <= last_op)
        .collect();
    kept.sort_by_key(|s| (s.op, s.start_ns, s.id));
    let mut out = Json::obj()
        .with("workload", workload)
        .with("spans_recorded", total)
        .with("spans_written", kept.len())
        .with("ops_written", u64::from(kept.last().map_or(0, |s| s.op)))
        .compact();
    out.push('\n');
    for s in kept {
        let mut line = Json::obj()
            .with("workload", workload)
            .with("op", u64::from(s.op))
            .with("id", u64::from(s.id))
            .with("parent", u64::from(s.parent))
            .with("name", s.kind.name())
            .with("start_ns", s.start_ns)
            .with("end_ns", s.start_ns + u64::from(s.dur_ns));
        match s.kind {
            SpanKind::Dispatch => line.set("path", TAG_PATHS[usize::from(s.tag.min(3))]),
            SpanKind::Sim => line.set(
                "mechanism",
                *mechanisms.get(usize::from(s.tag)).unwrap_or(&"?"),
            ),
            _ => {}
        }
        out.push_str(&line.compact());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, id: u32, parent: u32, op: u32, dur_ns: u32) -> Span {
        Span {
            start_ns: u64::from(id) * 10,
            dur_ns,
            id,
            parent,
            op,
            kind,
            tag: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        assert_eq!(self_ns(1000, 300), 700);
        assert_eq!(self_ns(1000, 1000), 0);
        // Clock jitter can make children read longer than the parent.
        assert_eq!(self_ns(1000, 1001), 0);
        // op 1: 1000 ns over two dispatches (300 + 200), host fns 100 + 50.
        let caller = [
            span(SpanKind::Dispatch, 2, 1, 1, 300),
            span(SpanKind::Dispatch, 4, 1, 1, 200),
            span(SpanKind::Op, 1, 0, 1, 1000),
        ];
        let host = [
            span(SpanKind::HostFn, 3, 2, 1, 100),
            span(SpanKind::HostFn, 5, 4, 1, 50),
        ];
        let s = summarise(&caller, &host, true);
        assert_eq!((s.roots, s.children, s.host_fns), (1, 2, 2));
        assert_eq!(s.root_self_ns, 500);
        assert_eq!(s.child_self_ns, 350);
        assert_eq!(s.host_fn_ns, 150);
        assert!(fully_covered(&s));
    }

    #[test]
    fn missing_spans_are_counted() {
        // An op with no dispatch, a dispatch with no host fn, and a
        // dispatch parented to another op.
        let caller = [
            span(SpanKind::Op, 1, 0, 1, 100),
            span(SpanKind::Dispatch, 3, 2, 2, 50),
            span(SpanKind::Dispatch, 4, 9, 9, 50),
            span(SpanKind::Op, 2, 0, 2, 200),
        ];
        let host = [span(SpanKind::HostFn, 5, 4, 9, 10)];
        let s = summarise(&caller, &host, true);
        assert_eq!(s.roots_without_child, 1);
        assert_eq!(s.orphan_children, 1);
        assert_eq!(s.unmatched_host_fns, 1);
        assert!(!fully_covered(&s));
        assert!(!fully_covered(&SpanSummary::default()));
    }

    #[test]
    fn wrappers_link_op_dispatch_and_host_fn() {
        let log = SpanLog::new();
        let mut table = OcallTable::new();
        let inc = table.register(
            "inc",
            |args: &[u64; MAX_OCALL_ARGS], _: &[u8], _: &mut Vec<u8>| args[0] as i64 + 1,
        );
        let table = Arc::new(traced_table(table, &log));
        let enclave = sgx_sim::Enclave::new_virtual(switchless_core::CpuSpec::paper_machine());
        let regular = sgx_sim::RegularOcall::new(table, enclave);
        let traced = TracedDispatcher::new(&regular, Arc::clone(&log));
        let mut out = Vec::new();
        // Off: nothing is recorded.
        traced
            .dispatch(&OcallRequest::new(inc, &[1]), &[], &mut out)
            .unwrap();
        assert_eq!(log.take().0.len(), 0);
        log.enable();
        for i in 0..3u64 {
            let open = log.begin();
            let start = Instant::now();
            let (ret, _) = traced
                .dispatch(&OcallRequest::new(inc, &[i]), &[], &mut out)
                .unwrap();
            assert_eq!(ret, i as i64 + 1);
            log.end(open, SpanKind::Op, start, Instant::now());
        }
        let (caller, host) = log.take();
        let s = summarise(&caller, &host, true);
        assert_eq!((s.roots, s.children, s.host_fns), (3, 3, 3));
        assert!(fully_covered(&s), "{s:?}");
        let text = to_jsonl("t", &caller, &host, 4, &[]);
        // Header + 3 spans for each of the first two ops.
        assert_eq!(text.lines().count(), 1 + 6);
        for line in text.lines() {
            Json::parse(line).unwrap();
        }
        assert!(text.contains("\"name\":\"host_fn\"") && text.contains("\"path\":\"regular\""));
    }
}

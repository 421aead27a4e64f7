//! # printed-obs
//!
//! Workspace-wide observability for the printed-microprocessor
//! reproduction: a lightweight, dependency-free registry of **counters**,
//! **gauges**, **histograms**, and **hierarchical span timers**, with
//! JSON-lines and human-text exporters.
//!
//! The long-running compute loops of the evaluation — gate-level
//! simulation, Monte-Carlo fault campaigns, the 24-point design-space
//! sweep — report into a global [`Registry`] through this crate, and
//! `eval::perf_report` renders the registry as the `perf_summary`
//! artifact. Every instrumentation site is gated on the `PRINTED_OBS`
//! environment variable:
//!
//! | `PRINTED_OBS` | behaviour |
//! |---|---|
//! | unset / `off` | everything disabled; instrumentation is one relaxed atomic load |
//! | `summary` | metrics are recorded; [`finish`] prints the text summary |
//! | `trace` | additionally, every completed span prints one JSON line immediately |
//!
//! ```
//! use printed_obs as obs;
//!
//! obs::set_level(obs::Level::Summary);
//! {
//!     let _span = obs::span!("demo.outer");
//!     obs::add("demo.events", 3);
//!     obs::gauge("demo.rate", 1.5);
//! }
//! let text = obs::global().render_summary();
//! assert!(text.contains("demo.events"));
//! for line in obs::global().export_jsonl().lines() {
//!     obs::json::parse(line).expect("every exported line is valid JSON");
//! }
//! # obs::global().reset();
//! # obs::set_level(obs::Level::Off);
//! ```
//!
//! Independently of `PRINTED_OBS`, setting `PRINTED_TRACE_OUT=trace.json`
//! turns on [`chrome`] trace collection: spans and counter updates are
//! recorded with timestamps on per-thread lanes and [`finish`] writes a
//! Chrome Trace Event / Perfetto-compatible JSON file to that path.
//!
//! The crate is also the dependency-free home of the small primitives
//! every layer shares: [`crc`] (CRC-32), [`fnv`] (FNV-1a 64), [`mod@file`]
//! (temp-file + rename writes), and [`retry`] (panic supervision with
//! bounded retries).
//!
//! Naming convention: dotted lower-case paths, `<crate>.<subsystem>.<metric>`
//! (for example `netlist.sim.gate_evals`, `eval.figure8`). Nested spans
//! compose their paths: a `span!("figure7")` opened inside
//! `span!("eval")` records as `eval.figure7`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod crc;
pub mod file;
pub mod fnv;
pub mod json;
mod registry;
pub mod retry;

pub use registry::{Histogram, Registry, SpanStats};

use std::cell::RefCell;
use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Observability verbosity, from the `PRINTED_OBS` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Everything disabled (the default); near-zero overhead.
    Off,
    /// Record metrics; [`finish`] prints a text summary.
    Summary,
    /// Like `Summary`, plus one JSON line per completed span as it closes.
    Trace,
}

/// `Level` cache: 0/1/2 = Off/Summary/Trace, `UNSET` = not yet read.
static LEVEL: AtomicU8 = AtomicU8::new(UNSET);
const UNSET: u8 = 0xFF;

fn level_from_env() -> Level {
    match std::env::var("PRINTED_OBS").as_deref() {
        Ok("summary") => Level::Summary,
        Ok("trace") => Level::Trace,
        _ => Level::Off,
    }
}

/// The current verbosity (reads `PRINTED_OBS` once, then caches).
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Summary,
        2 => Level::Trace,
        _ => {
            let level = level_from_env();
            LEVEL.store(level as u8, Ordering::Relaxed);
            level
        }
    }
}

/// Overrides the verbosity programmatically (tests, tools).
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether any recording is enabled. The hot-path gate: when this is
/// false every instrumentation call returns immediately.
#[inline]
pub fn enabled() -> bool {
    level() != Level::Off
}

/// The process-wide registry all convenience functions record into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Adds `n` to the named counter in the global registry (no-op when
/// disabled). When chrome-trace collection is on, also appends one
/// cumulative counter sample to the trace time-series.
#[inline]
pub fn add(name: &str, n: u64) {
    if enabled() {
        global().add(name, n);
    }
    if chrome::collecting() {
        chrome::record_counter_add(name, n);
    }
}

/// Increments the named counter by one (no-op when disabled).
#[inline]
pub fn incr(name: &str) {
    add(name, 1);
}

/// Sets the named gauge (no-op when disabled). When chrome-trace
/// collection is on, also appends one counter sample to the trace.
#[inline]
pub fn gauge(name: &str, value: f64) {
    if enabled() {
        global().gauge(name, value);
    }
    if chrome::collecting() {
        chrome::record_counter_set(name, value);
    }
}

/// Records a value into the named histogram (no-op when disabled).
#[inline]
pub fn record(name: &str, value: u64) {
    if enabled() {
        global().record(name, value);
    }
}

/// The shared trace-line sink: `None` means stderr. A single process-wide
/// mutex serializes whole lines, so concurrent campaign workers can never
/// shear each other's JSON events mid-line.
#[allow(clippy::type_complexity)]
fn trace_sink() -> &'static Mutex<Option<Box<dyn std::io::Write + Send>>> {
    static SINK: OnceLock<Mutex<Option<Box<dyn std::io::Write + Send>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Redirects trace-event lines (tests, tools); `None` restores stderr.
/// Returns the previous sink so callers can restore it.
pub fn set_trace_writer(
    writer: Option<Box<dyn std::io::Write + Send>>,
) -> Option<Box<dyn std::io::Write + Send>> {
    let mut sink = trace_sink().lock().unwrap_or_else(|e| e.into_inner());
    std::mem::replace(&mut *sink, writer)
}

/// Writes one complete line through the shared sink in a single
/// `write_all`, holding the sink lock for the whole line.
fn emit_trace_line(line: &str) {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    let mut sink = trace_sink().lock().unwrap_or_else(|e| e.into_inner());
    match sink.as_mut() {
        Some(w) => {
            let _ = w.write_all(&buf);
            let _ = w.flush();
        }
        None => {
            let _ = std::io::stderr().write_all(&buf);
        }
    }
}

/// Emits an ad-hoc JSON-line event in `trace` mode only, through a
/// single line-buffered writer shared by all threads (stderr by
/// default) so concurrent emitters cannot interleave mid-line. The
/// closure runs only when tracing, so formatting costs nothing
/// otherwise.
#[inline]
pub fn trace_event(make_line: impl FnOnce() -> String) {
    if level() == Level::Trace {
        emit_trace_line(&make_line());
    }
}

thread_local! {
    /// Active span names on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// RAII timer for one span; created by [`span!`] (or [`SpanGuard::enter`])
/// and recorded into the global registry on drop.
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when observability is off — the guard is then inert.
    active: Option<(String, Instant)>,
}

impl SpanGuard {
    /// Opens a span. The recorded path is the dot-join of every span
    /// currently open on this thread plus `name`. Active when either
    /// the registry ([`enabled`]) or chrome-trace collection
    /// ([`chrome::collecting`]) wants it.
    pub fn enter(name: &str) -> SpanGuard {
        if !enabled() && !chrome::collecting() {
            return SpanGuard { active: None };
        }
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name.to_string());
            stack.join(".")
        });
        SpanGuard { active: Some((path, Instant::now())) }
    }

    /// The full dotted path this guard records under (`None` when inert).
    pub fn path(&self) -> Option<&str> {
        self.active.as_ref().map(|(p, _)| p.as_str())
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((path, start)) = self.active.take() else { return };
        let ns = start.elapsed().as_nanos() as u64;
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        if enabled() {
            global().record_span(&path, ns);
            trace_event(|| {
                format!("{{\"type\":\"span_close\",\"path\":{},\"ns\":{ns}}}", json::escape(&path))
            });
        }
        if chrome::collecting() {
            chrome::record_span(&path, start, ns);
        }
    }
}

/// Opens a hierarchical span timer; bind the result to keep it alive:
///
/// ```
/// # printed_obs::set_level(printed_obs::Level::Summary);
/// let _span = printed_obs::span!("eval.robustness");
/// # drop(_span);
/// # printed_obs::global().reset();
/// # printed_obs::set_level(printed_obs::Level::Off);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

/// Extracts the `VmHWM` kilobyte figure from a procfs `status` blob.
fn parse_vmhwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Reads peak RSS from a procfs-style status file; `None` when the
/// file is missing (non-Linux) or lacks a parseable `VmHWM` line.
fn peak_rss_kb_from(path: &str) -> Option<u64> {
    parse_vmhwm(&std::fs::read_to_string(path).ok()?)
}

/// Peak resident-set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`); `None` where procfs is unavailable.
pub fn peak_rss_kb() -> Option<u64> {
    peak_rss_kb_from("/proc/self/status")
}

/// End-of-run hook for binaries: prints the text summary to stderr in
/// `summary` mode, or the full JSON-lines export in `trace` mode, and
/// writes the chrome trace when `PRINTED_TRACE_OUT` is set. A no-op
/// when both are off.
pub fn finish() {
    match level() {
        Level::Off => {}
        Level::Summary => eprintln!("{}", global().render_summary()),
        Level::Trace => eprint!("{}", global().export_jsonl()),
    }
    if chrome::collecting() {
        if let Some(path) = chrome::write_if_requested() {
            eprintln!("printed-obs: chrome trace written to {path}");
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    /// Level juggling in tests needs care: run serially via one lock.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn off_level_records_nothing() {
        let _g = serial();
        set_level(Level::Off);
        let reg = Registry::new();
        add("off.counter", 5);
        {
            let _span = span!("off.span");
            assert!(_span.path().is_none(), "guard is inert when off");
        }
        assert_eq!(reg.snapshot_counters().len(), 0);
        assert!(!enabled());
    }

    #[test]
    fn spans_nest_into_dotted_paths() {
        let _g = serial();
        set_level(Level::Summary);
        global().reset();
        {
            let outer = span!("t_outer");
            assert_eq!(outer.path(), Some("t_outer"));
            let inner = span!("t_inner");
            assert_eq!(inner.path(), Some("t_outer.t_inner"));
        }
        let spans = global().snapshot_spans();
        assert!(spans.iter().any(|(p, s)| p == "t_outer" && s.count == 1));
        assert!(spans.iter().any(|(p, s)| p == "t_outer.t_inner" && s.count == 1));
        global().reset();
        set_level(Level::Off);
    }

    #[test]
    fn convenience_functions_hit_the_global_registry() {
        let _g = serial();
        set_level(Level::Summary);
        global().reset();
        add("t.counter", 2);
        incr("t.counter");
        gauge("t.gauge", 0.25);
        record("t.hist", 7);
        let counters = global().snapshot_counters();
        assert!(counters.iter().any(|(n, v)| n == "t.counter" && *v == 3));
        let summary = global().render_summary();
        assert!(summary.contains("t.gauge"));
        assert!(summary.contains("t.hist"));
        global().reset();
        set_level(Level::Off);
    }

    #[test]
    fn exported_jsonl_parses_line_by_line() {
        let _g = serial();
        set_level(Level::Summary);
        global().reset();
        add("t.\"quoted\"", 1);
        gauge("t.g", 1.0);
        record("t.h", 1024);
        {
            let _s = span!("t.span");
        }
        let jsonl = global().export_jsonl();
        assert!(jsonl.lines().count() >= 4);
        for line in jsonl.lines() {
            let value = json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(value.get("type").is_some(), "{line}");
        }
        global().reset();
        set_level(Level::Off);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(kb) = peak_rss_kb() {
            assert!(kb > 0);
        }
    }

    #[test]
    fn peak_rss_is_none_without_procfs() {
        // The non-Linux code path: no procfs status file -> None, no panic.
        assert_eq!(peak_rss_kb_from("/definitely/not/procfs/status"), None);
        assert_eq!(parse_vmhwm(""), None);
        assert_eq!(parse_vmhwm("Name:\tx\nVmRSS:\t12 kB\n"), None);
        assert_eq!(parse_vmhwm("VmHWM:\tnot_a_number kB\n"), None);
        assert_eq!(parse_vmhwm("Name:\tx\nVmHWM:\t1234 kB\n"), Some(1234));
    }

    /// A `Write` that appends into a shared buffer, for capturing the
    /// trace sink in tests.
    #[derive(Clone)]
    struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap_or_else(|e| e.into_inner()).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn concurrent_trace_events_do_not_shear_lines() {
        let _g = serial();
        set_level(Level::Trace);
        let buf = SharedBuf(std::sync::Arc::new(Mutex::new(Vec::new())));
        let prev = set_trace_writer(Some(Box::new(buf.clone())));
        const THREADS: usize = 4;
        const EVENTS: usize = 64;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    for i in 0..EVENTS {
                        trace_event(|| {
                            let pad = "x".repeat(200);
                            format!(
                                "{{\"type\":\"shear_probe\",\"thread\":{t},\
                                 \"seq\":{i},\"pad\":\"{pad}\"}}"
                            )
                        });
                    }
                });
            }
        });
        set_trace_writer(prev);
        set_level(Level::Off);
        let data = buf.0.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let text = String::from_utf8(data).expect("utf8 output");
        let mut lines = 0;
        for line in text.lines() {
            let value = json::parse(line).unwrap_or_else(|e| panic!("sheared line {line:?}: {e}"));
            assert_eq!(
                value.get("type").and_then(json::Value::as_str),
                Some("shear_probe"),
                "{line}"
            );
            lines += 1;
        }
        assert_eq!(lines, THREADS * EVENTS);
    }

    #[test]
    fn chrome_collection_captures_nested_spans_and_counters() {
        let _g = serial();
        set_level(Level::Off);
        chrome::start_collecting();
        {
            let outer = span!("c_outer");
            assert!(outer.path().is_some(), "guard active for chrome even with obs off");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span!("c_inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        add("c.counter", 2);
        add("c.counter", 3);
        gauge("c.gauge", 1.5);
        let events = chrome::stop_and_drain();
        let outer = events.iter().find(|e| e.name == "c_outer").expect("outer span recorded");
        let inner = events
            .iter()
            .find(|e| e.name == "c_outer.c_inner")
            .expect("inner span recorded with nested path");
        assert_eq!(outer.tid, inner.tid, "same thread -> same lane");
        let (
            chrome::EventKind::Complete { dur_us: od },
            chrome::EventKind::Complete { dur_us: id },
        ) = (&outer.kind, &inner.kind)
        else {
            panic!("span events must be Complete: {outer:?} {inner:?}");
        };
        // Child interval contained in the parent's (2us truncation slop).
        assert!(outer.ts_us <= inner.ts_us, "{outer:?} vs {inner:?}");
        assert!(outer.ts_us + od + 2 >= inner.ts_us + id, "{outer:?} vs {inner:?}");
        let counter_values: Vec<f64> = events
            .iter()
            .filter(|e| e.name == "c.counter")
            .filter_map(|e| match e.kind {
                chrome::EventKind::Counter { value } => Some(value),
                _ => None,
            })
            .collect();
        assert_eq!(counter_values, vec![2.0, 5.0], "cumulative counter samples");
        assert!(events.iter().any(|e| e.name == "c.gauge"));
    }
}

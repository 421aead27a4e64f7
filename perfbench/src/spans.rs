//! The benchmark's own span recorder: nested spans around calls into the
//! program's public functions, accumulated as self time per span name.
//!
//! Spans read the process CPU clock ([`crate::clock`]). A span's self
//! time is its duration minus the time its child spans cover. Wrapping
//! each op in a root span whose name is the layer residual (`<workload>.rest`) makes the self times of one op add up to
//! the op's duration; [`Tracer::tiling_error`] checks that sum against an
//! op time measured independently of the tracer.

use std::collections::BTreeMap;

use crate::clock;

struct Open {
    name: String,
    start_ns: u64,
    child_ns: u64,
}

/// Records spans when enabled; a disabled tracer only runs the closures.
#[derive(Default)]
pub struct Tracer {
    enabled: bool,
    open: Vec<Open>,
    self_ns: BTreeMap<String, u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, ..Tracer::default() }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        self.open.push(Open { name: name.to_string(), start_ns: clock::cpu_ns(), child_ns: 0 });
        let out = f(self);
        let open = self.open.pop().expect("spans close in the order they open");
        let ns = clock::cpu_ns() - open.start_ns;
        *self.self_ns.entry(open.name).or_default() += ns.saturating_sub(open.child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += ns;
        }
        out
    }

    /// Accumulated self time of `name`, nanoseconds.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }

    /// Sum of every span's self time, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }

    /// Relative gap between the summed self times and `measured_ns`, the
    /// same ops timed from outside the tracer.
    pub fn tiling_error(&self, measured_ns: u64) -> f64 {
        (self.total_ns() as f64 - measured_ns as f64).abs() / measured_ns.max(1) as f64
    }
}

/// Largest tiling gap a traced run accepts: the spans' own clock reads
/// are the only time they may lose or double-count.
pub const TILING_TOLERANCE: f64 = 0.01;

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = clock::cpu_ns();
        while clock::cpu_ns() - t < us * 1000 {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn self_times_tile_the_root_span() {
        let mut tr = Tracer::new(true);
        let started = clock::cpu_ns();
        tr.span("w.rest", |tr| {
            busy(200);
            tr.span("a", |tr| {
                busy(300);
                tr.span("b", |_| busy(400));
            });
        });
        let measured = clock::cpu_ns() - started;
        assert!(tr.self_ns("b") >= 400_000);
        assert!(tr.self_ns("a") >= 300_000);
        assert!(tr.tiling_error(measured) < TILING_TOLERANCE);
        assert!(tr.tiling_error(measured * 2) > TILING_TOLERANCE, "a lost half is caught");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("a", |_| 7), 7);
        assert_eq!(tr.total_ns(), 0);
    }
}

//! The measurement loop every workload shares: whole rounds of a fixed
//! call sequence until the run length has passed, with batches of timed
//! set-ups (each followed by an untimed warm-up) spread over the run; and
//! the traced pass, which alternates untraced and traced rounds.
//!
//! Every round makes the same calls in the same order on the same state,
//! so window `w` of one round (a fixed run of consecutive calls, about a
//! millisecond of work) repeats window `w` of every other. For each window
//! the meter keeps its fastest occurrence, with the call times of that
//! occurrence; throughput, the median and the 99th-percentile call come
//! from those. Contention
//! from the rest of the host comes and goes over seconds and only ever
//! adds time, so the fastest occurrences show the program's own cost. A
//! call that is slow because of the program (a pool miss, a spill) is slow
//! in every occurrence and stays in the figures.
//!
//! The 99th percentile comes from the window minima too, except on a
//! workload whose rounds are long and whose calls all cost about the same
//! (`crowd`: one storm of 1,751 ticks of ~330 µs). A position there recurs
//! only some twenty-five times in a run, so whether its slowest positions
//! met a quiet stretch of the host at all depends on how much of the run
//! was quiet: that percentile spread by 25–35% over ten runs. Such a
//! workload reports the first quartile over its rounds of each round's own
//! 99th percentile instead.
//!
//! `setup_s` follows the same reasoning: set-up is timed in
//! [`SETUP_BATCHES`] batches spread evenly over the run, each batch's
//! median is taken, and the lowest batch median is reported, so one slow
//! stretch of the host at the start of a run does not set the figure.

use crate::alloc;
use crate::stats::{median, quantile};
use obs::span::{SpanId, Tracer};
use obs::{Obs, ObsHandle};
use std::hint::black_box;
use std::time::Instant;

/// Batches of timed set-ups per run, the first before the first round and
/// the others at even shares of the run length.
pub const SETUP_BATCHES: usize = 32;
/// Set-ups per batch: at least the first, more while the batch has taken
/// less than [`SETUP_BATCH_S`] seconds.
const SETUP_BATCH: (usize, usize) = (3, 15);
const SETUP_BATCH_S: f64 = 0.03;
/// Which of the rounds' own 99th percentiles, in ascending order, a
/// workload that asks for them reports.
const ROUND_P99_QUANTILE: f64 = 0.25;
/// Most rounds whose 99th percentile is kept.
const MAX_ROUNDS: usize = 1 << 12;
/// Spans one traced pass keeps; later calls are timed but not recorded.
pub const KEEP_SPANS: usize = 1 << 16;
/// Most calls one round may make. [`Minima`] is allocated up front, so
/// the benchmark's own bookkeeping never allocates inside the measured
/// heap window.
const MAX_CALLS: usize = 1 << 16;

/// Per-window fastest occurrences over the rounds of a run.
#[derive(Debug)]
pub struct Minima {
    window: usize,
    /// Fastest busy time of each window, ns.
    best_window: Vec<u64>,
    /// Call times of each window's fastest occurrence, ns.
    best_calls: Vec<u64>,
    /// Call times of the round in progress, ns.
    current: Vec<u64>,
    /// Calls per round, once a round has ended.
    calls: usize,
    /// Whether each round's 99th percentile is kept.
    per_round: bool,
    /// Each round's 99th-percentile call time, ns, when kept.
    round_p99: Vec<f64>,
}

impl Minima {
    /// Empty minima over windows of `window` calls; with `per_round`, they
    /// also keep each round's own 99th percentile.
    #[must_use]
    pub fn new(window: usize, per_round: bool) -> Self {
        assert!(window > 0, "a window holds at least one call");
        Self {
            window,
            best_window: vec![u64::MAX; MAX_CALLS],
            best_calls: vec![0; MAX_CALLS],
            current: vec![0; MAX_CALLS],
            calls: 0,
            per_round,
            round_p99: Vec::with_capacity(if per_round { MAX_ROUNDS } else { 0 }),
        }
    }

    /// Sum of the windows' fastest busy times, ns.
    #[must_use]
    pub fn busy_ns(&self) -> f64 {
        let windows = self.calls.div_ceil(self.window);
        self.best_window[..windows].iter().map(|&ns| ns as f64).sum()
    }

    /// The [`ROUND_P99_QUANTILE`] of the rounds' own 99th percentiles, ns.
    #[must_use]
    pub fn round_p99(&self) -> Option<f64> {
        let mut v = self.round_p99.clone();
        v.sort_by(f64::total_cmp);
        quantile(&v, ROUND_P99_QUANTILE)
    }

    /// The call times of every window's fastest occurrence, ascending, ns.
    #[must_use]
    pub fn sorted_calls(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.best_calls[..self.calls].iter().map(|&ns| ns as f64).collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// The benchmark's own spans, kept in memory in an obs [`Tracer`] whose
/// timestamps are wall nanoseconds since the trace began. A span's
/// category is its name up to the first dot (`store.get` → `store`).
#[derive(Debug)]
pub struct Trace {
    tracer: Tracer,
    epoch: Instant,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace; its clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self { tracer: Tracer::with_capacity(KEEP_SPANS), epoch: Instant::now() }
    }

    /// Nanoseconds since the trace began.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Whether [`KEEP_SPANS`] spans are kept, so [`Meter`] records no more.
    #[must_use]
    pub fn full(&self) -> bool {
        self.tracer.events().len() >= KEEP_SPANS
    }

    /// Begin a span named `name` now.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let ts = self.now();
        self.tracer.begin_at(category(name), name, ts)
    }

    /// End `span` now.
    pub fn end(&mut self, span: SpanId) {
        let ts = self.now();
        self.tracer.end_at(span, ts);
    }

    /// Record a span that began at `start` and lasted `dur` nanoseconds.
    pub fn record(&mut self, name: &'static str, start: u64, dur: u64) {
        let span = self.tracer.begin_at(category(name), name, start);
        self.tracer.end_at(span, start + dur);
    }

    /// Time `f` as one span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    /// Every duration recorded under `name`, in nanoseconds.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.tracer.events().iter().filter(|e| e.name == name).map(|e| e.dur).collect()
    }

    /// The trace as a Chrome trace document (`chrome://tracing`,
    /// Perfetto). The viewer reads one timestamp unit as a microsecond, so
    /// its time axis shows nanoseconds.
    #[must_use]
    pub fn chrome_json(&self, process: &str) -> String {
        obs::chrome::export(&self.tracer, process)
    }
}

fn category(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// Times each call a workload makes into the program.
#[derive(Debug)]
pub struct Meter<'a> {
    minima: &'a mut Minima,
    pos: usize,
    window_start: usize,
    window_ns: u64,
    trace: Option<&'a mut Trace>,
}

impl<'a> Meter<'a> {
    /// A meter for one round, recording a span per call into `trace`, when
    /// given, until it is [`Trace::full`].
    pub fn new(minima: &'a mut Minima, trace: Option<&'a mut Trace>) -> Self {
        Self { minima, pos: 0, window_start: 0, window_ns: 0, trace }
    }

    /// Time one call into the program.
    ///
    /// # Panics
    /// When a round makes more than [`MAX_CALLS`] calls.
    #[inline]
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.trace.as_deref().filter(|t| !t.full()).map(Trace::now);
        let t0 = Instant::now();
        let out = black_box(f());
        let ns = t0.elapsed().as_nanos() as u64;
        if let (Some(t), Some(start)) = (self.trace.as_deref_mut(), start) {
            t.record(name, start, ns);
        }
        self.minima.current[self.pos] = ns;
        self.pos += 1;
        self.window_ns += ns;
        if self.pos - self.window_start == self.minima.window {
            self.close_window();
        }
        out
    }

    fn close_window(&mut self) {
        let (from, to) = (self.window_start, self.pos);
        let m = &mut *self.minima;
        let slot = &mut m.best_window[from / m.window];
        if self.window_ns < *slot {
            *slot = self.window_ns;
            m.best_calls[from..to].copy_from_slice(&m.current[from..to]);
        }
        self.window_start = to;
        self.window_ns = 0;
    }

    /// End the round: close its last window, and keep its 99th percentile
    /// when the minima do.
    ///
    /// # Panics
    /// When the round made a different number of calls than earlier ones.
    pub fn end_round(mut self) {
        if self.pos > self.window_start {
            self.close_window();
        }
        let m = &mut *self.minima;
        if m.calls == 0 {
            m.calls = self.pos;
        }
        assert_eq!(m.calls, self.pos, "every round makes the same calls");
        if m.per_round && m.round_p99.len() < MAX_ROUNDS {
            let round = &mut m.current[..self.pos];
            round.sort_unstable();
            // The interpolated rank of `stats::quantile`, without a copy
            // inside the measured heap window.
            let rank = 0.99 * (round.len() - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            let (a, b) = (round[lo] as f64, round[hi] as f64);
            m.round_p99.push(a + (rank - lo as f64) * (b - a));
        }
    }
}

/// What one round did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Round {
    /// Operations attempted.
    pub ops: u64,
    /// Operations or checks that failed.
    pub failed: u64,
}

/// A named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self { name: name.into(), value, unit }
    }
}

/// One benchmark workload over the program's public interface.
pub trait Workload {
    /// The workload's name on the command line.
    fn name(&self) -> &'static str;
    /// Calls per timing window: about a millisecond of work.
    fn window(&self) -> usize;
    /// Whether `op_p99_us` is the first quartile of the rounds' own 99th
    /// percentiles rather than that of the window minima (see the module
    /// notes).
    fn p99_per_round(&self) -> bool {
        false
    }
    /// Program-side set-up from the generated inputs: everything a round
    /// needs before its first timed call. Timed as `setup_s`; repeated
    /// during the run, each time on the state the last round left.
    fn setup(&mut self);
    /// Untimed warm-up calls after each batch of set-ups, with their
    /// checks. Returns checks failed.
    fn warm_up(&mut self) -> u64;
    /// One round of the workload's fixed call sequence, from the state
    /// [`Workload::setup`] left; every call into the program goes through
    /// `meter`. With `hub`, the round's program state is armed on that obs
    /// hub and the workload keeps its per-layer counts.
    fn round(&mut self, meter: &mut Meter<'_>, hub: Option<&ObsHandle>) -> Round;
    /// Checks after the timed phase. Returns checks failed.
    fn finish(&mut self) -> u64 {
        0
    }
    /// Per-layer metrics after the traced rounds, from `trace` and the
    /// workload's own counts; may run probes of its own for up to
    /// `seconds`.
    fn layer_metrics(&mut self, trace: &mut Trace, seconds: f64) -> Vec<Metric>;
}

/// End-to-end figures of one untraced run.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Lowest batch median of the set-up time, seconds.
    pub setup_s: f64,
    /// Operations per round over the summed window minima.
    pub throughput_ops_per_s: f64,
    /// Median call latency in the windows' fastest occurrences, µs.
    pub op_p50_us: f64,
    /// 99th-percentile call latency in the windows' fastest occurrences,
    /// or the first quartile of the rounds' own where the workload asks
    /// for that, µs.
    pub op_p99_us: f64,
    /// Most heap held at once from set-up to the end, MiB.
    pub peak_heap_mib: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations or checks failed.
    pub failed: u64,
    /// Rounds run.
    pub rounds: u64,
    /// Calls per round: the latency sample count.
    pub calls: usize,
    /// Set-up repetitions.
    pub setups: usize,
    /// Batches the set-ups were made in.
    pub setup_batches: usize,
}

impl EndToEnd {
    /// The five end-to-end metrics.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new("throughput_ops_per_s", self.throughput_ops_per_s, "ops/s"),
            Metric::new("op_p50_us", self.op_p50_us, "us"),
            Metric::new("op_p99_us", self.op_p99_us, "us"),
            Metric::new("peak_heap_mib", self.peak_heap_mib, "MiB"),
        ]
    }
}

/// One batch of timed set-ups, then the untimed warm-up. Pushes each
/// set-up's seconds to `times`; returns the warm-up's failed checks.
fn setup_batch(w: &mut dyn Workload, times: &mut Vec<f64>) -> u64 {
    let (from, start) = (times.len(), Instant::now());
    let (least, most) = SETUP_BATCH;
    while times.len() - from < least
        || (times.len() - from < most && start.elapsed().as_secs_f64() < SETUP_BATCH_S)
    {
        let t = Instant::now();
        w.setup();
        times.push(t.elapsed().as_secs_f64());
    }
    w.warm_up()
}

/// The untraced run: whole rounds until `seconds` of wall time have passed
/// (at least one), with a batch of timed set-ups and a warm-up before the
/// first round and after each further [`SETUP_BATCHES`]th share of the run.
pub fn run_end_to_end(w: &mut dyn Workload, seconds: f64) -> EndToEnd {
    let mut minima = Minima::new(w.window(), w.p99_per_round());
    // Bookkeeping is allocated before the measured heap window.
    let mut setups: Vec<f64> = Vec::with_capacity(SETUP_BATCHES * SETUP_BATCH.1);
    let mut batch_ends: Vec<usize> = Vec::with_capacity(SETUP_BATCHES);
    let (mut rounds, mut ops, mut attempted, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let base = alloc::reset_peak();
    let start = Instant::now();
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        let share = batch_ends.len() as f64 / SETUP_BATCHES as f64;
        if batch_ends.len() < SETUP_BATCHES && start.elapsed().as_secs_f64() >= share * seconds {
            failed += setup_batch(w, &mut setups);
            batch_ends.push(setups.len());
            continue;
        }
        let mut meter = Meter::new(&mut minima, None);
        let r = w.round(&mut meter, None);
        meter.end_round();
        assert!(rounds == 0 || r.ops == ops, "every round attempts the same operations");
        (rounds, ops, attempted, failed) =
            (rounds + 1, r.ops, attempted + r.ops, failed + r.failed);
    }
    failed += w.finish();
    let peak = alloc::peak().saturating_sub(base);
    let mut from = 0;
    let batch_medians: Vec<f64> = batch_ends
        .iter()
        .filter_map(|&to| {
            let m = median(&setups[from..to]);
            from = to;
            m
        })
        .collect();
    let calls = minima.sorted_calls();
    EndToEnd {
        setup_s: batch_medians.iter().copied().fold(f64::INFINITY, f64::min),
        throughput_ops_per_s: ops as f64 / (minima.busy_ns() / 1e9).max(f64::MIN_POSITIVE),
        op_p50_us: quantile(&calls, 0.5).unwrap_or(0.0) / 1e3,
        op_p99_us: if w.p99_per_round() { minima.round_p99() } else { quantile(&calls, 0.99) }
            .unwrap_or(0.0)
            / 1e3,
        peak_heap_mib: peak as f64 / (1024.0 * 1024.0),
        attempted,
        failed,
        rounds,
        calls: calls.len(),
        setups: setups.len(),
        setup_batches: batch_ends.len(),
    }
}

/// Outcome of one workload's traced pass.
#[derive(Debug, Clone)]
pub struct TracedPass {
    /// Per-layer metrics, the obs ones included.
    pub metrics: Vec<Metric>,
    /// Operations attempted, traced and untraced rounds together.
    pub attempted: u64,
    /// Operations or checks failed.
    pub failed: u64,
}

/// The traced pass: set-up and warm-up, then untraced and traced rounds
/// alternately (at least one each) until `seconds` have passed. Traced
/// rounds arm a fresh obs hub and record spans. Reports the workload's
/// layer metrics plus the obs events per operation and the armed
/// overhead: the traced rounds' summed window minima over the untraced
/// rounds'. The workload's own probes may take another `seconds`.
pub fn run_traced(w: &mut dyn Workload, seconds: f64, trace: &mut Trace) -> TracedPass {
    trace.time("bench.setup", || w.setup());
    let mut failed = w.warm_up();
    let (mut plain, mut armed) = (Minima::new(w.window(), false), Minima::new(w.window(), false));
    let (mut attempted, mut traced_ops, mut events) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while traced_ops == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut meter = Meter::new(&mut plain, None);
        let r = w.round(&mut meter, None);
        meter.end_round();
        attempted += r.ops;
        failed += r.failed;

        let hub = Obs::new(obs::CostModel::pentium()).into_handle();
        let open = trace.begin("bench.round");
        let mut meter = Meter::new(&mut armed, Some(&mut *trace));
        let r = w.round(&mut meter, Some(&hub));
        meter.end_round();
        trace.end(open);
        events += hub.borrow().tracer.events().len() as u64;
        attempted += r.ops;
        traced_ops += r.ops;
        failed += r.failed;
    }
    failed += w.finish();
    let name = w.name();
    let mut metrics = w.layer_metrics(trace, seconds);
    let overhead = armed.busy_ns() / plain.busy_ns().max(f64::MIN_POSITIVE) - 1.0;
    metrics.push(Metric::new(
        format!("obs.{name}.events_per_op"),
        events as f64 / traced_ops.max(1) as f64,
        "count",
    ));
    metrics.push(Metric::new(format!("obs.{name}.armed_overhead_pct"), overhead * 100.0, "%"));
    TracedPass { metrics, attempted, failed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_keeps_spans_by_name_in_an_obs_tracer() {
        let mut t = Trace::new();
        let round = t.begin("bench.round");
        t.record("store.get", 10, 5);
        t.time("store.get", || ());
        t.end(round);
        assert_eq!(t.durations("store.get").len(), 2);
        assert_eq!(t.durations("store.get")[0], 5);
        assert_eq!(t.durations("bench.round").len(), 1);
        assert!(t.durations("absent").is_empty());
        let json = t.chrome_json("wallbench");
        assert!(json.contains("\"cat\":\"store\",\"name\":\"store.get\""));
        assert!(!t.full());
    }
}

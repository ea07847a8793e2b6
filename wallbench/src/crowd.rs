//! `crowd`: the canonical mega-crowd storm, driven one processed tick at a
//! time through `EventEngine`'s public calls. The serving stack does all
//! the work; store, txn and query do none.

use crate::harness::{Meter, Metric, Round, Trace, Workload};
use crate::stats::{median, median_us};
use adm_core::scenario::megacrowd::{self, MegaParams, MegaReport, CROWD_ATOM};
use adm_rng::Pcg32;
use obs::ObsHandle;
use patia::atom::{Atom, AtomStore, AtomType};
use patia::constraint::{AtomConstraint, ConstraintLogic};
use patia::engine::{EngineTotals, EventEngine};
use patia::server::{PatiaServer, ServerConfig};
use patia::workload::FlowSpec;
use std::hint::black_box;
use std::time::Instant;
use ubinet::{BandwidthProfile, Device, DeviceKind, Link, LinkKind, Network};

/// Storms per round. One storm is 1,751 processed ticks, so its 99th
/// percentile tick has 17 beyond it; a longer round would repeat each
/// tick position less often in a run.
const STORMS_PER_ROUND: usize = 1;

/// Fewest storm pairs the per-layer probe runs.
const PROBE_PAIRS: usize = 2;

/// Ticks of one storm the probe runs before switching to its partner:
/// ~17 ms, far shorter than the host's slow stretches, and long enough
/// that the switch, which leaves the caches to the partner's engine,
/// touches one tick in fifty. Switching every tick made each tick ~55%
/// slower.
const LOCKSTEP_TICKS: usize = 50;

/// Largest shift, in ticks, the seed applies to each burst window and to
/// the kill/revive pair. Every burst stays on its flow's plateau.
const JITTER: u64 = 20;

/// The canonical storm with its arrival rates divided by `rate_divisor`;
/// the seed shifts each burst window and the mid-storm kill/revive by up
/// to ±[`JITTER`] ticks. Fleet, flows, rates and ramps stay canonical.
#[must_use]
pub fn storm(seed: u64, rate_divisor: f64) -> MegaParams {
    let mut p = megacrowd::mega_crowd();
    let mut rng = Pcg32::new(seed);
    for f in &mut p.flows {
        if let Some(b) = &mut f.burst {
            b.at = b.at - JITTER + rng.below(2 * JITTER + 1);
        }
        f.rate /= rate_divisor;
    }
    let d = rng.below(2 * JITTER + 1);
    p.kill_at = p.kill_at.map(|t| t - JITTER + d);
    p.revive_at = p.revive_at.map(|t| t - JITTER + d);
    p
}

/// The mega fleet, as the `megacrowd` scenario builds it from public
/// calls: `servers` server-class nodes and `workstations` typing-pool
/// machines in a full mesh, all replicating the crowd atom.
fn fleet(p: &MegaParams) -> (Network, AtomStore, Vec<AtomConstraint>) {
    let servers: Vec<String> = (1..=p.servers).map(|i| format!("srv{i:02}")).collect();
    let pool: Vec<String> = (1..=p.workstations).map(|i| format!("wk{i}")).collect();
    let mut net = Network::new();
    for n in &servers {
        net.add_device(Device::new(n, DeviceKind::Server));
    }
    for n in &pool {
        net.add_device(Device::new(n, DeviceKind::Workstation));
    }
    let all: Vec<String> = servers.iter().chain(&pool).cloned().collect();
    for (i, a) in all.iter().enumerate() {
        for b in &all[i + 1..] {
            net.add_link(Link::new(a, b, LinkKind::Wired, BandwidthProfile::Constant(10_000.0), 1));
        }
    }
    let mut atoms = AtomStore::new();
    let mut page = Atom::new(CROWD_ATOM, "crowd.html", AtomType::Html, 40_000);
    for (v, n) in all.iter().enumerate() {
        page.add_replica(v as u32 + 1, n);
    }
    page.constraint_ids = vec![700, 705];
    atoms.insert(page);
    let constraints = vec![
        AtomConstraint {
            id: 700,
            atom: CROWD_ATOM,
            logic: ConstraintLogic::SelectBest { candidates: servers },
        },
        AtomConstraint {
            id: 705,
            atom: CROWD_ATOM,
            logic: ConstraintLogic::SwitchOnCpu { threshold: 0.9, candidates: all },
        },
    ];
    (net, atoms, constraints)
}

/// The program-side set-up of one storm: fleet, server, engine, flows and
/// the kill/revive of the crowd agent's boot home.
#[must_use]
pub fn build_engine(p: &MegaParams) -> EventEngine {
    let (net, atoms, constraints) = fleet(p);
    let server = PatiaServer::new(
        net,
        atoms,
        constraints,
        ServerConfig { adaptive: true, work_per_request: 1 },
    );
    let mut engine = EventEngine::new(server);
    for &f in &p.flows {
        engine.add_flow(f);
    }
    let home = engine.server().agents(CROWD_ATOM)[0].node.clone();
    if let Some(t) = p.kill_at {
        engine.schedule_kill(t, &home);
    }
    if let Some(t) = p.revive_at {
        engine.schedule_revive(t, &home);
    }
    engine
}

/// The next tick `engine` processes, as `EventEngine::run_to` picks it;
/// `None` past the horizon.
fn next_tick(engine: &EventEngine, p: &MegaParams) -> Option<u64> {
    let due = engine.wheel().next_deadline()?;
    (due <= p.horizon).then(|| due.max(engine.server().now() + 1))
}

/// Drive `engine` to the horizon one processed tick at a time, timing each
/// `run_tick` as one call under `span`.
fn drive(engine: &mut EventEngine, p: &MegaParams, meter: &mut Meter<'_>, span: &'static str) {
    while let Some(now) = next_tick(engine, p) {
        let stats = meter.time(span, || engine.run_tick(now, p.client_bandwidth_kbps));
        drop(stats);
    }
}

/// One unarmed storm of each of `storms` on a fresh engine, in lockstep:
/// [`LOCKSTEP_TICKS`] ticks of each in turn, so both meet the same stretch
/// of the host. Returns each storm's tick times in ns and the requests that
/// arrived.
fn lockstep(storms: [&MegaParams; 2], trace: &mut Trace) -> [(Vec<u64>, u64); 2] {
    const SPANS: [&str; 2] = ["patia.tick", "patia.mini_tick"];
    let mut engines = storms.map(build_engine);
    let mut ticks = [Vec::new(), Vec::new()];
    let mut stepped = true;
    while stepped {
        stepped = false;
        for (i, p) in storms.iter().enumerate() {
            for _ in 0..LOCKSTEP_TICKS {
                let Some(now) = next_tick(&engines[i], p) else { break };
                let start = trace.now();
                let t0 = Instant::now();
                black_box(engines[i].run_tick(now, p.client_bandwidth_kbps));
                let ns = t0.elapsed().as_nanos() as u64;
                if !trace.full() {
                    trace.record(SPANS[i], start, ns);
                }
                ticks[i].push(ns);
                stepped = true;
            }
        }
    }
    let [full, mini] = ticks;
    [(full, engines[0].totals().arrivals), (mini, engines[1].totals().arrivals)]
}

/// Requests the storm's flows offer in total.
#[must_use]
pub fn offered(p: &MegaParams) -> u64 {
    p.flows.iter().map(FlowSpec::total_requests).sum()
}

/// The storm's checks: conservation (offered = arrivals + shed, arrivals =
/// completed + dropped + queued), an empty queue at the horizon, at least
/// one SWITCH (the overlapping flows exceed one server's 10k requests per
/// tick), and equality with the `reference` totals when given. Returns
/// the number of checks that failed.
#[must_use]
pub fn check(report: &MegaReport, reference: Option<&EngineTotals>) -> u64 {
    let checks = [
        report.conserved(),
        report.queued_at_end == 0,
        report.totals.switches >= 1,
        reference.is_none_or(|r| *r == report.totals),
    ];
    checks.iter().filter(|ok| !**ok).count() as u64
}

fn report_of(engine: &EventEngine, p: &MegaParams) -> MegaReport {
    MegaReport {
        totals: *engine.totals(),
        queued_at_end: engine.server().queued_requests(),
        offered: offered(p),
    }
}

/// Totals of the traced rounds, for the patia layer metrics.
#[derive(Debug, Default)]
struct Layer {
    storms: u64,
    ticks: u64,
    arrivals: u64,
    switches: u64,
}

/// The `crowd` workload.
#[derive(Debug)]
pub struct Crowd {
    seed: u64,
    params: MegaParams,
    engine: Option<EventEngine>,
    reference: Option<EngineTotals>,
    layer: Layer,
}

impl Crowd {
    /// The full-rate storm for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_params(seed, storm(seed, 1.0))
    }

    /// A crowd over explicit storm parameters.
    #[must_use]
    pub fn with_params(seed: u64, params: MegaParams) -> Self {
        Self { seed, params, engine: None, reference: None, layer: Layer::default() }
    }
}

impl Workload for Crowd {
    fn name(&self) -> &'static str {
        "crowd"
    }

    /// A tick is about a third of a millisecond.
    fn window(&self) -> usize {
        1
    }

    /// A storm's ticks all cost about the same, and a storm recurs only
    /// some twenty-five times in a run (see the harness notes).
    fn p99_per_round(&self) -> bool {
        true
    }

    fn setup(&mut self) {
        self.engine = None;
        self.engine = Some(build_engine(&self.params));
    }

    /// The first warm-up runs one whole storm through the library's own
    /// `megacrowd::run`: its totals become the reference every
    /// tick-driven round must equal. Later warm-ups have nothing to do.
    fn warm_up(&mut self) -> u64 {
        if self.reference.is_some() {
            return 0;
        }
        let report = megacrowd::run(&self.params);
        self.reference = Some(report.totals);
        check(&report, None)
    }

    /// [`STORMS_PER_ROUND`] storms back to back, each on a fresh engine.
    fn round(&mut self, meter: &mut Meter<'_>, hub: Option<&ObsHandle>) -> Round {
        let mut round = Round::default();
        for _ in 0..STORMS_PER_ROUND {
            let mut engine = self.engine.take().unwrap_or_else(|| build_engine(&self.params));
            if let Some(h) = hub {
                engine.server_mut().arm_obs(h.clone());
            }
            drive(&mut engine, &self.params, meter, "patia.tick");
            engine.server_mut().disarm_obs();
            let report = report_of(&engine, &self.params);
            if hub.is_some() {
                self.layer.storms += 1;
                self.layer.ticks += report.totals.ticks_processed;
                self.layer.arrivals += report.totals.arrivals;
                self.layer.switches += report.totals.switches;
            }
            round.ops += report.offered;
            round.failed += check(&report, self.reference.as_ref());
        }
        round
    }

    /// Adds pairs of unarmed storms, one at full and one at 1/100 of the
    /// rate, in lockstep, for `seconds`. A tick of the slow storm is almost
    /// all fixed cost: its median, each tick position at its fastest
    /// occurrence, is the fixed tick. The full storm's extra time over its
    /// partner, divided by the extra requests, is the per-request cost of
    /// that pair; the median pair's is reported.
    fn layer_metrics(&mut self, trace: &mut Trace, seconds: f64) -> Vec<Metric> {
        let mini = storm(self.seed, 100.0);
        let (mut fastest_mini, mut per_request) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while per_request.len() < PROBE_PAIRS || start.elapsed().as_secs_f64() < seconds {
            let [(full, full_req), (slow, slow_req)] = lockstep([&self.params, &mini], trace);
            let extra_ns = full.iter().sum::<u64>() as f64 - slow.iter().sum::<u64>() as f64;
            per_request.push(extra_ns / full_req.saturating_sub(slow_req).max(1) as f64);
            if fastest_mini.is_empty() {
                fastest_mini = slow;
            } else {
                fastest_mini.iter_mut().zip(slow).for_each(|(b, t)| *b = (*b).min(t));
            }
        }
        let fixed = median_us(&fastest_mini);
        let l = &self.layer;
        let storms = l.storms.max(1) as f64;
        vec![
            Metric::new("patia.fixed_tick_us", fixed, "us"),
            Metric::new("patia.ns_per_request", median(&per_request).unwrap_or(0.0), "ns"),
            Metric::new(
                "patia.requests_per_tick",
                l.arrivals as f64 / l.ticks.max(1) as f64,
                "count",
            ),
            Metric::new("patia.ticks_processed", l.ticks as f64 / storms, "count"),
            Metric::new("patia.switches", l.switches as f64 / storms, "count"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patia::engine::EngineTotals;

    fn report(offered: u64, arrivals: u64, shed: u64, completed: u64, queued: u64) -> MegaReport {
        MegaReport {
            totals: EngineTotals {
                arrivals,
                shed,
                completed,
                switches: 1,
                ..EngineTotals::default()
            },
            queued_at_end: queued,
            offered,
        }
    }

    #[test]
    fn conservation_checks_count_each_broken_property() {
        assert_eq!(check(&report(10, 8, 2, 8, 0), None), 0);
        // One request vanished: offered != arrivals + shed.
        assert_eq!(check(&report(11, 8, 2, 8, 0), None), 1);
        // A request still queued at the horizon breaks the empty-queue
        // check, but conservation still holds.
        assert_eq!(check(&report(10, 8, 2, 7, 1), None), 1);
        let mut calm = report(10, 8, 2, 8, 0);
        calm.totals.switches = 0;
        assert_eq!(check(&calm, None), 1, "a storm without a SWITCH fails");
        let other = EngineTotals { completed: 9, ..calm.totals };
        assert_eq!(check(&report(10, 8, 2, 8, 0), Some(&other)), 1);
    }

    #[test]
    fn seeds_shift_bursts_and_the_incident_but_keep_the_canonical_rates() {
        let (a, b) = (storm(1, 1.0), storm(2, 1.0));
        assert_ne!(a, b, "a second seed changes the inputs");
        let canon = megacrowd::mega_crowd();
        for p in [&a, &b] {
            assert_eq!(p.flows.len(), canon.flows.len());
            for (f, c) in p.flows.iter().zip(&canon.flows) {
                assert_eq!((f.start, f.end, f.rate, f.ramp), (c.start, c.end, c.rate, c.ramp));
                let (fb, cb) = (f.burst.unwrap(), c.burst.unwrap());
                assert!(fb.at.abs_diff(cb.at) <= JITTER);
            }
            assert_eq!(
                p.revive_at.unwrap() - p.kill_at.unwrap(),
                canon.revive_at.unwrap() - canon.kill_at.unwrap()
            );
        }
        assert_eq!(storm(1, 100.0).flows[0].rate, canon.flows[0].rate / 100.0);
    }
}

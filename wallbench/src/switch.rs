//! `switch`: cross-shard SWITCH as presumed-abort two-phase commit on the
//! three-shard `txnrep` world, each shard with a store attached. Atoms
//! 123 and 153 move to `wp1` and back; one op is one committed 2PC.

use crate::harness::{Meter, Metric, Minima, Round, Trace, Workload};
use crate::stats::median_us;
use adl::diff::ReconfigurationPlan;
use adm_core::scenario::txnrep;
use compkit::{NoFaults, PlanLinter};
use obs::ObsHandle;
use patia::atom::AtomId;
use patia::shard::{cross_shard_plans, route_binding};
use std::collections::BTreeMap;
use txn::{DataComponent, NoTxnCrash, TransactionCore};

/// Shards in the world.
const TOPOLOGY: usize = 3;
/// The migrations: atom, home node, destination node.
pub const MOVES: [(AtomId, &str, &str); 2] =
    [(AtomId(123), "node1", "wp1"), (AtomId(153), "node2", "wp1")];
/// Every node an atom could be bound on.
const HOSTS: [&str; 3] = ["node1", "node2", "wp1"];
/// Committed transactions per round.
pub const ROUND_TXNS: usize = 2_048;
/// Transactions per timing window: about a millisecond.
const WINDOW: usize = 32;

type Shards = BTreeMap<u32, DataComponent>;
type Plans = BTreeMap<u32, ReconfigurationPlan>;

/// The merged per-shard plans that move every atom of [`MOVES`] from
/// its home to its destination (`back` reverses them).
#[must_use]
pub fn plans(back: bool) -> Plans {
    let handles = txnrep::shard_handles(TOPOLOGY);
    let mut merged = Plans::new();
    for (atom, home, dest) in MOVES {
        let (from, to) = if back { (dest, home) } else { (home, dest) };
        for (id, p) in cross_shard_plans(&handles, atom, from, to) {
            let m = merged.entry(id).or_default();
            m.unbind.extend(p.unbind);
            m.stop.extend(p.stop);
            m.start.extend(p.start);
            m.bind.extend(p.bind);
        }
    }
    merged
}

/// Checks failed on the shards' bindings: each atom must be routed on
/// exactly one host of all shards, and that host is where it should be.
#[must_use]
pub fn check_bindings(shards: &Shards, moved: bool) -> u64 {
    MOVES
        .iter()
        .filter(|(atom, home, dest)| {
            let want = if moved { *dest } else { *home };
            let bound: Vec<&str> = HOSTS
                .iter()
                .copied()
                .filter(|h| {
                    let b = route_binding(*atom, h);
                    shards.values().any(|dc| dc.runtime().bindings().contains(&b))
                })
                .collect();
            bound != [want]
        })
        .count() as u64
}

/// Checks failed on the transaction core after `issued` transactions: no
/// lock held, no transaction open, and every one committed.
#[must_use]
pub fn check_core(tc: &TransactionCore, issued: u64) -> u64 {
    let checks =
        [tc.locks().held_total() == 0, tc.log().open_txns().is_empty(), tc.committed() == issued];
    checks.iter().filter(|ok| !**ok).count() as u64
}

#[derive(Debug, Default)]
struct Layer {
    txns: u64,
    log_records: u64,
    grants: u64,
    conflicts: u64,
    forces: u64,
    store_records: u64,
}

/// The `switch` workload.
#[derive(Debug)]
pub struct Switch {
    seed: u64,
    txns: usize,
    world: Option<(Shards, Plans, Plans, TransactionCore)>,
    layer: Layer,
}

impl Switch {
    /// The benchmark's `switch` for `seed`: the seed perturbs every
    /// instance's state in the booted world.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_txns(seed, ROUND_TXNS)
    }

    /// A `switch` with `txns` transactions per round.
    #[must_use]
    pub fn with_txns(seed: u64, txns: usize) -> Self {
        Self { seed, txns, world: None, layer: Layer::default() }
    }

    fn boot(&self) -> (Shards, Plans, Plans, TransactionCore) {
        let (shards, forward) = txnrep::seeded_world(self.seed, TOPOLOGY);
        (shards, forward, plans(true), TransactionCore::new())
    }

    /// Run `n` transactions there and back on a fresh world.
    fn run(&mut self, n: usize, meter: &mut Meter<'_>, hub: Option<&ObsHandle>) -> Round {
        let (mut shards, forward, back, mut tc) = self.world.take().unwrap_or_else(|| self.boot());
        if let Some(h) = hub {
            tc.arm_obs(h.clone());
            for dc in shards.values_mut() {
                dc.store_mut().expect("txnrep attaches a store to every shard").arm_obs(h.clone());
            }
        }
        let store_records = |shards: &Shards| -> u64 {
            shards.values().filter_map(DataComponent::store).map(|s| s.wal().len() as u64).sum()
        };
        let records_before = store_records(&shards);
        let mut failed = 0;
        for i in 0..n {
            let moved = i % 2 == 0;
            let p = if moved { &forward } else { &back };
            let now = 50 + i as u64;
            let r = meter.time("txn.execute_cross_shard", || {
                tc.execute_cross_shard(&mut shards, p, now, &mut NoFaults, &mut NoTxnCrash)
            });
            failed += u64::from(r.is_err());
            failed += check_bindings(&shards, moved);
            failed += check_core(&tc, i as u64 + 1);
        }
        if let Some(h) = hub {
            let l = &mut self.layer;
            l.txns += n as u64;
            l.log_records += tc.log().appended_total();
            l.grants += tc.locks().grants();
            l.conflicts += tc.locks().conflicts();
            l.forces += h.borrow().metrics.counter("txn.log.force");
            l.store_records += store_records(&shards) - records_before;
        }
        Round { ops: n as u64, failed }
    }
}

impl Workload for Switch {
    fn name(&self) -> &'static str {
        "switch"
    }

    fn window(&self) -> usize {
        WINDOW
    }

    /// Boot the sharded world with its stores, plan both directions, and
    /// open a transaction core.
    fn setup(&mut self) {
        self.world = None;
        self.world = Some(self.boot());
    }

    fn warm_up(&mut self) -> u64 {
        let mut minima = Minima::new(WINDOW, false);
        let mut meter = Meter::new(&mut minima, None);
        let failed = self.run(self.txns / 8, &mut meter, None).failed;
        meter.end_round();
        failed
    }

    fn round(&mut self, meter: &mut Meter<'_>, hub: Option<&ObsHandle>) -> Round {
        self.run(self.txns, meter, hub)
    }

    fn layer_metrics(&mut self, trace: &mut Trace, _seconds: f64) -> Vec<Metric> {
        let linter = PlanLinter::new();
        let all: Vec<ReconfigurationPlan> =
            plans(false).into_values().chain(plans(true).into_values()).collect();
        for _ in 0..200 {
            for p in &all {
                let report = trace.time("compkit.planlint", || linter.lint_one(p));
                assert!(!report.has_errors(), "the workload's plans are lint-clean");
            }
        }
        let l = &self.layer;
        let txns = l.txns.max(1) as f64;
        vec![
            Metric::new("txn.log.records_per_txn", l.log_records as f64 / txns, "count"),
            Metric::new("txn.lock.grants_per_txn", l.grants as f64 / txns, "count"),
            Metric::new("txn.log.forces_per_txn", l.forces as f64 / txns, "count"),
            Metric::new("txn.lock.conflicts", l.conflicts as f64, "count"),
            Metric::new("store.wal.records_per_txn", l.store_records as f64 / txns, "count"),
            Metric::new(
                "compkit.planlint_us",
                median_us(&trace.durations("compkit.planlint")),
                "us",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compkit::LiveComponent;

    #[test]
    fn binding_check_by_hand() {
        let (mut shards, forward) = txnrep::seeded_world(17, TOPOLOGY);
        assert_eq!(check_bindings(&shards, false), 0, "booted at home");
        assert_eq!(check_bindings(&shards, true), 2, "neither atom is at wp1 yet");
        let mut tc = TransactionCore::new();
        tc.execute_cross_shard(&mut shards, &forward, 50, &mut NoFaults, &mut NoTxnCrash).unwrap();
        assert_eq!(check_bindings(&shards, true), 0);
        assert_eq!(check_core(&tc, 1), 0);
        assert_eq!(check_core(&tc, 2), 1, "a missing commit is caught");
        // A second route for atom 123, back on node1, breaks "exactly one
        // host".
        let rt = shards.values_mut().next().unwrap().runtime_mut();
        let agent = LiveComponent { ty: "Agent".into(), state: Vec::new(), started_at: 0 };
        rt.start("atom:123", agent).unwrap();
        rt.bind(route_binding(AtomId(123), "node1")).unwrap();
        assert_eq!(check_bindings(&shards, true), 1);
    }

    #[test]
    fn back_plans_undo_forward_plans() {
        let (f, b) = (plans(false), plans(true));
        assert_eq!(f.len(), 3);
        assert_eq!(f, txnrep::seeded_world(1, TOPOLOGY).1, "forward equals txnrep's plans");
        for (id, p) in &f {
            assert_eq!(p.unbind, b[id].bind);
            assert_eq!(p.bind, b[id].unbind);
        }
    }
}

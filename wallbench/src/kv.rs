//! `kv`: point `StorageEngine::get` calls beside single-put `apply`
//! transactions, Zipf-skewed over a record set several times the buffer
//! pool, on an engine opened from its log by crash recovery.

use crate::harness::{Meter, Metric, Round, Trace, Workload};
use crate::stats::median_us;
use adm_rng::Pcg32;
use obs::ObsHandle;
use std::collections::BTreeMap;
use store::{NoCrash, PageId, PoolStats, StorageEngine, StoreOp, Wal, WalRecord, PAGE_SIZE};

/// The input make-up of a `kv` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Records loaded at set-up.
    pub records: usize,
    /// Buffer-pool frames.
    pub pool_frames: usize,
    /// Operations per round.
    pub round_ops: usize,
    /// Share of gets among the operations, in percent.
    pub read_pct: u64,
    /// Zipf exponent of the key popularity.
    pub zipf_s: f64,
    /// Smallest and largest value size in bytes.
    pub value_bytes: (u32, u32),
    /// Puts per load transaction.
    pub load_batch: usize,
    /// Untimed warm-up gets.
    pub warm_gets: usize,
}

/// The benchmark's shape: 6,000 records of 40-120 bytes fill about 140
/// pages, over four times the 32-frame pool; the skew makes about 80% of
/// page fetches hit.
pub const SHAPE: Shape = Shape {
    records: 6_000,
    pool_frames: 32,
    round_ops: 20_000,
    read_pct: 90,
    zipf_s: 1.2,
    value_bytes: (40, 120),
    load_batch: 64,
    warm_gets: 5_000,
};

/// One operation of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// `get(key)` must return `arena[expect]`.
    Get {
        /// The key read.
        key: u64,
        /// Index of the expected value in the arena.
        expect: usize,
    },
    /// Apply `puts[op]` as one transaction.
    Put {
        /// Index into the prepared single-put transactions.
        op: usize,
    },
}

/// Generated inputs, with the benchmark's own oracle: a `BTreeMap` from
/// key to the index of its current value, advanced op by op.
#[derive(Debug, Clone)]
pub struct Input {
    /// Every value the run writes; the first `records` are the load.
    pub arena: Vec<Vec<u8>>,
    /// The load, as batched put transactions.
    pub load: Vec<Vec<StoreOp>>,
    /// Untimed warm-up reads: `(key, expected arena index)`.
    pub warm: Vec<(u64, usize)>,
    /// One round's operations.
    pub ops: Vec<KvOp>,
    /// The single-put transactions the round's puts apply.
    pub puts: Vec<StoreOp>,
    /// The oracle after one round: key to arena index.
    pub final_state: BTreeMap<u64, usize>,
}

/// A Zipf sampler over ranks `0..n`.
#[derive(Debug, Clone)]
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        Self { cdf }
    }

    fn sample(&self, rng: &mut Pcg32) -> usize {
        let u = rng.f64() * self.cdf.last().copied().unwrap_or(0.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Generate a run's inputs from `seed`. Popularity ranks map to keys
/// through a seeded permutation, so hot records spread over all pages.
#[must_use]
pub fn generate(seed: u64, shape: &Shape) -> Input {
    let mut rng = Pcg32::new(seed);
    let value = |rng: &mut Pcg32| {
        let mut v = vec![0u8; rng.range_u32(shape.value_bytes.0, shape.value_bytes.1 + 1) as usize];
        rng.fill_bytes(&mut v);
        v
    };
    let mut arena: Vec<Vec<u8>> = (0..shape.records).map(|_| value(&mut rng)).collect();
    let load = (0..shape.records)
        .collect::<Vec<_>>()
        .chunks(shape.load_batch)
        .map(|c| {
            c.iter().map(|&i| StoreOp::Put { key: i as u64, value: arena[i].clone() }).collect()
        })
        .collect();
    let mut perm: Vec<u64> = (0..shape.records as u64).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.index(i + 1));
    }
    let zipf = Zipf::new(shape.records, shape.zipf_s);
    let mut oracle: BTreeMap<u64, usize> = (0..shape.records).map(|i| (i as u64, i)).collect();
    let warm = (0..shape.warm_gets)
        .map(|_| {
            let key = perm[zipf.sample(&mut rng)];
            (key, oracle[&key])
        })
        .collect();
    let (mut ops, mut puts) = (Vec::with_capacity(shape.round_ops), Vec::new());
    for _ in 0..shape.round_ops {
        let key = perm[zipf.sample(&mut rng)];
        if rng.below(100) < shape.read_pct {
            ops.push(KvOp::Get { key, expect: oracle[&key] });
        } else {
            let v = value(&mut rng);
            puts.push(StoreOp::Put { key, value: v.clone() });
            arena.push(v);
            oracle.insert(key, arena.len() - 1);
            ops.push(KvOp::Put { op: puts.len() - 1 });
        }
    }
    Input { arena, load, warm, ops, puts, final_state: oracle }
}

/// Load the records into a fresh engine, one transaction per batch.
fn load(input: &Input, pool_frames: usize) -> StorageEngine {
    let mut e = StorageEngine::new(pool_frames);
    for batch in &input.load {
        e.apply(batch).expect("the load is well-formed");
    }
    e
}

/// Checks failed when every key of `oracle` is read back from `e`: one
/// per wrong or missing value, plus one if `e` holds other records.
#[must_use]
pub fn verify_all(e: &mut StorageEngine, oracle: &BTreeMap<u64, usize>, arena: &[Vec<u8>]) -> u64 {
    let wrong = oracle
        .iter()
        .filter(|&(&key, &idx)| !matches!(e.get(key), Ok(Some(v)) if v == arena[idx]))
        .count() as u64;
    wrong + u64::from(e.len() != oracle.len())
}

/// Modelled log size: per record a tag byte and an 8-byte transaction id;
/// op records add an 8-byte key and each image a 4-byte length prefix.
#[must_use]
pub fn wal_bytes(wal: &Wal) -> u64 {
    wal.records()
        .iter()
        .map(|r| match r {
            WalRecord::Begin { .. } | WalRecord::Commit { .. } | WalRecord::Abort { .. } => 9,
            WalRecord::Put { before, after, .. } => {
                17 + 4 + before.as_ref().map_or(0, Vec::len) as u64 + 4 + after.len() as u64
            }
            WalRecord::Delete { before, .. } => 17 + 4 + before.len() as u64,
        })
        .sum()
}

/// Bytes a user wrote or holds: key plus value.
fn user_bytes<'a>(values: impl Iterator<Item = &'a [u8]>) -> u64 {
    values.map(|v| 8 + v.len() as u64).sum()
}

/// Pages the engine has allocated (ids are dense from 0).
fn pages(e: &StorageEngine) -> u64 {
    (0..).take_while(|&i| e.pool().contains(PageId(i))).count() as u64
}

#[derive(Debug, Default)]
struct Layer {
    ops: u64,
    pool: PoolStats,
    wal_per_user: f64,
    disk_per_live: f64,
}

/// The `kv` workload.
#[derive(Debug)]
pub struct Kv {
    shape: Shape,
    input: Input,
    template: Option<StorageEngine>,
    last: Option<StorageEngine>,
    layer: Layer,
}

impl Kv {
    /// The benchmark's `kv` for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_shape(seed, SHAPE)
    }

    /// A `kv` of any shape.
    #[must_use]
    pub fn with_shape(seed: u64, shape: Shape) -> Self {
        Self {
            shape,
            input: generate(seed, &shape),
            template: None,
            last: None,
            layer: Layer::default(),
        }
    }
}

impl Workload for Kv {
    fn name(&self) -> &'static str {
        "kv"
    }

    /// About 40 µs of gets and puts. A round has 200 windows and a run
    /// some 1,000 rounds, so each window still recurs often enough to meet
    /// a quiet stretch; and a hiccup of the host of a few µs makes the
    /// occurrence it falls in lose to another, so it stays out of the
    /// 99th-percentile put.
    fn window(&self) -> usize {
        100
    }

    /// Load, crash, and open the engine from its log.
    fn setup(&mut self) {
        self.template = None;
        let mut e = load(&self.input, self.shape.pool_frames);
        e.crash();
        e.recover(&mut NoCrash).expect("recovery without a crash hook succeeds");
        self.template = Some(e);
    }

    fn warm_up(&mut self) -> u64 {
        let e = self.template.as_mut().expect("set up before warm-up");
        let arena = &self.input.arena;
        self.input
            .warm
            .iter()
            .filter(|&&(key, idx)| !matches!(e.get(key), Ok(Some(v)) if v == arena[idx]))
            .count() as u64
    }

    fn round(&mut self, meter: &mut Meter<'_>, hub: Option<&ObsHandle>) -> Round {
        self.last = None;
        let mut e = self.template.as_ref().expect("set up before a round").clone();
        if let Some(h) = hub {
            e.arm_obs(h.clone());
        }
        let before = e.pool_stats();
        let (arena, puts) = (&self.input.arena, &self.input.puts);
        let mut failed = 0;
        for op in &self.input.ops {
            let ok = match *op {
                KvOp::Get { key, expect } => {
                    let got = meter.time("store.get", || e.get(key));
                    matches!(got, Ok(Some(v)) if v == arena[expect])
                }
                KvOp::Put { op } => {
                    let txn = std::slice::from_ref(&puts[op]);
                    meter.time("store.put", || e.apply(txn)).is_ok()
                }
            };
            failed += u64::from(!ok);
        }
        if hub.is_some() {
            e.disarm_obs();
            let after = e.pool_stats();
            let l = &mut self.layer;
            l.ops += self.input.ops.len() as u64;
            l.pool.hits += after.hits - before.hits;
            l.pool.misses += after.misses - before.misses;
            l.pool.writebacks += after.writebacks - before.writebacks;
            let written = self.input.load.iter().flatten().chain(puts).map(|op| match op {
                StoreOp::Put { value, .. } => value.as_slice(),
                StoreOp::Delete { .. } => &[],
            });
            l.wal_per_user = wal_bytes(e.wal()) as f64 / user_bytes(written) as f64;
            let live = user_bytes(self.input.final_state.values().map(|&i| arena[i].as_slice()));
            l.disk_per_live = (pages(&e) * PAGE_SIZE as u64) as f64 / live as f64;
        }
        self.last = Some(e);
        Round { ops: self.input.ops.len() as u64, failed }
    }

    /// Crash the last round's engine and recover it: every acknowledged
    /// put must read back with its last value.
    fn finish(&mut self) -> u64 {
        let Some(mut e) = self.last.take() else { return 1 };
        e.crash();
        if e.recover(&mut NoCrash).is_err() {
            return 1;
        }
        verify_all(&mut e, &self.input.final_state, &self.input.arena)
    }

    fn layer_metrics(&mut self, trace: &mut Trace, _seconds: f64) -> Vec<Metric> {
        let mut replayed = 0;
        for _ in 0..3 {
            let mut e = trace.time("store.load", || load(&self.input, self.shape.pool_frames));
            e.crash();
            let stats = trace.time("store.recover", || e.recover(&mut NoCrash));
            replayed = stats.expect("recovery without a crash hook succeeds").replayed;
        }
        let l = &self.layer;
        let ops = l.ops.max(1) as f64;
        let fetches = (l.pool.hits + l.pool.misses).max(1) as f64;
        vec![
            Metric::new("store.get_us", median_us(&trace.durations("store.get")), "us"),
            Metric::new("store.put_us", median_us(&trace.durations("store.put")), "us"),
            Metric::new("store.pool.hit_pct", 100.0 * l.pool.hits as f64 / fetches, "%"),
            Metric::new("store.pool.misses_per_op", l.pool.misses as f64 / ops, "count"),
            Metric::new("store.pool.writebacks_per_op", l.pool.writebacks as f64 / ops, "count"),
            Metric::new("store.wal.bytes_per_user_byte", l.wal_per_user, "ratio"),
            Metric::new("store.disk.bytes_per_live_byte", l.disk_per_live, "ratio"),
            Metric::new(
                "store.recover_ms",
                median_us(&trace.durations("store.recover")) / 1e3,
                "ms",
            ),
            Metric::new("store.recover.records_replayed", replayed as f64, "count"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Shape {
        Shape {
            records: 40,
            pool_frames: 2,
            round_ops: 300,
            read_pct: 70,
            zipf_s: 0.99,
            value_bytes: (8, 16),
            load_batch: 8,
            warm_gets: 20,
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Pcg32::new(5);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        let top = draws.iter().filter(|&&r| r == 0).count();
        let tail = draws.iter().filter(|&&r| r == 99).count();
        // H(100) ~ 5.19: rank 0 carries ~19%, rank 99 ~0.19%.
        assert!((1_700..2_200).contains(&top), "rank 0 drawn {top} times");
        assert!(tail < 60, "rank 99 drawn {tail} times");
        assert!(draws.iter().all(|&r| r < 100));
    }

    #[test]
    fn oracle_follows_puts_by_hand() {
        let input = generate(3, &tiny());
        // Replay the ops on a plain map and compare with the oracle.
        let mut state: BTreeMap<u64, usize> = (0..40).map(|i| (i as u64, i)).collect();
        for op in &input.ops {
            match *op {
                KvOp::Get { key, expect } => assert_eq!(state[&key], expect),
                KvOp::Put { op } => {
                    let StoreOp::Put { key, value } = &input.puts[op] else { panic!("a put") };
                    let idx = input.arena.iter().rposition(|v| v == value).unwrap();
                    state.insert(*key, idx);
                }
            }
        }
        assert_eq!(state.len(), input.final_state.len());
        for (k, &i) in &state {
            assert_eq!(input.arena[i], input.arena[input.final_state[k]]);
        }
    }

    #[test]
    fn verify_all_counts_wrong_missing_and_extra_records() {
        let arena = vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()];
        let mut e = StorageEngine::new(2);
        e.apply(&[
            StoreOp::Put { key: 1, value: b"a".to_vec() },
            StoreOp::Put { key: 2, value: b"x".to_vec() },
            StoreOp::Put { key: 9, value: b"c".to_vec() },
        ])
        .unwrap();
        let oracle: BTreeMap<u64, usize> = [(1, 0), (2, 1), (3, 2)].into_iter().collect();
        // Key 2 is wrong, key 3 is missing, and the count matches by chance.
        assert_eq!(verify_all(&mut e, &oracle, &arena), 2);
        let two: BTreeMap<u64, usize> = [(1, 0)].into_iter().collect();
        assert_eq!(verify_all(&mut e, &two, &arena), 1, "extra records fail the count");
    }

    #[test]
    fn wal_size_model_by_hand() {
        let mut e = StorageEngine::new(2);
        e.apply(&[StoreOp::Put { key: 1, value: vec![0; 10] }]).unwrap();
        // Begin 9 + Put (17 + 4 + 0 + 4 + 10) + Commit 9.
        assert_eq!(wal_bytes(e.wal()), 9 + 35 + 9);
        e.apply(&[StoreOp::Put { key: 1, value: vec![0; 3] }]).unwrap();
        assert_eq!(wal_bytes(e.wal()), 53 + 9 + (17 + 4 + 10 + 4 + 3) + 9);
    }
}

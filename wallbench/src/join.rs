//! `join`: a fixed round-robin of the adaptive operators — symmetric hash
//! join, ripple join with its online aggregate, XJoin under a memory
//! budget that spills, and an eddy filter — over seeded tables read
//! through `StoreScan` from an engine whose pool holds them all.

use crate::harness::{Meter, Metric, Round, Trace, Workload};
use crate::stats::median_us;
use adm_rng::Pcg32;
use datacomp::{ColumnType, Row, Schema, Table, Value};
use obs::ObsHandle;
use query::adaptive::eddy::{Eddy, EddyPred};
use query::adaptive::ripple::{AggKind, RippleJoin};
use query::adaptive::shj::SymmetricHashJoin;
use query::adaptive::xjoin::XJoin;
use query::expr::CmpOp;
use query::op::{drain, Operator, WorkCounter};
use query::{persist_table, Pred, StoreScan};
use store::StorageEngine;

/// The input make-up of a `join` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Rows of each of the two large tables (symmetric hash join, eddy).
    pub big_rows: usize,
    /// Rows of each of the two small tables (ripple join, XJoin).
    pub small_rows: usize,
    /// XJoin's per-side memory budget, in tuples.
    pub xjoin_budget: usize,
    /// Ripple block size.
    pub ripple_block: usize,
    /// Buffer-pool frames: enough for every table.
    pub pool_frames: usize,
}

/// The benchmark's shape.
pub const SHAPE: Shape =
    Shape { big_rows: 500, small_rows: 80, xjoin_budget: 16, ripple_block: 8, pool_frames: 256 };

/// The four queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `A ⋈ B` on `k` by symmetric hash join.
    Shj,
    /// `C ⋈ D` on `k` by ripple join, with `SUM(D.v)` online.
    Ripple,
    /// `C ⋈ D` on `k` by XJoin, spilling past its budget.
    Xjoin,
    /// `A` filtered by three predicates routed by an eddy.
    Eddy,
}

/// The round-robin; one pass is one round. Every query of a kind does the
/// same work on the same read-only engine, so the calls of a round take
/// ten fixed times; the mix puts the median call on an XJoin and the 99th
/// percentile on a hash join, away from the edges between kinds, where a
/// quantile jumps.
pub const MIX: [Query; 10] = [
    Query::Eddy,
    Query::Shj,
    Query::Ripple,
    Query::Eddy,
    Query::Xjoin,
    Query::Eddy,
    Query::Ripple,
    Query::Xjoin,
    Query::Eddy,
    Query::Shj,
];

impl Query {
    fn span(self) -> &'static str {
        match self {
            Query::Shj => "query.shj",
            Query::Ripple => "query.ripple",
            Query::Xjoin => "query.xjoin",
            Query::Eddy => "query.eddy",
        }
    }
}

const BASE_A: u64 = 0;
const BASE_B: u64 = 1 << 20;
const BASE_C: u64 = 2 << 20;
const BASE_D: u64 = 3 << 20;
/// Values of the `v` column are drawn from `0..V_RANGE`.
const V_RANGE: i64 = 1_000;
/// `drain`'s livelock guard; stored scans never stall.
const STALLS: u64 = 1_000;

/// The three eddy predicates over `(id, k, v)`, with their costs.
fn eddy_preds(big_rows: usize) -> Vec<EddyPred> {
    let n = big_rows as i64;
    vec![
        EddyPred::new(Pred::lt(2, Value::Int(700)), 1),
        EddyPred::new(Pred::Cmp { col: 1, op: CmpOp::Ge, value: Value::Int(n / 5) }, 2),
        EddyPred::new(Pred::lt(0, Value::Int(n * 9 / 10)), 1),
    ]
}

/// The same predicates, applied directly.
fn eddy_oracle(row: &[i64; 3], big_rows: usize) -> bool {
    let n = big_rows as i64;
    row[2] < 700 && row[1] >= n / 5 && row[0] < n * 9 / 10
}

/// A table of `(id, k, v)` rows.
fn schema() -> Schema {
    Schema::new(&[("id", ColumnType::Int), ("k", ColumnType::Int), ("v", ColumnType::Int)])
        .expect("the schema is valid")
}

fn rows(rng: &mut Pcg32, n: usize, keys: usize) -> Vec<[i64; 3]> {
    (0..n as i64).map(|id| [id, rng.below(keys as u64) as i64, rng.range_i64(0, V_RANGE)]).collect()
}

fn to_row(r: &[i64; 3]) -> Row {
    r.iter().map(|&x| Value::Int(x)).collect()
}

/// Naive nested-loop equi-join on column 1, as sorted output rows.
#[must_use]
pub fn nested_loop_join(left: &[[i64; 3]], right: &[[i64; 3]]) -> Vec<Row> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            if l[1] == r[1] {
                let mut row = to_row(l);
                row.extend(to_row(r));
                out.push(row);
            }
        }
    }
    out.sort();
    out
}

/// Generated tables and the benchmark's expected answers.
#[derive(Debug, Clone)]
pub struct Input {
    tables: [Table; 4],
    /// Expected `A ⋈ B`, sorted.
    pub ab: Vec<Row>,
    /// Expected `C ⋈ D`, sorted.
    pub cd: Vec<Row>,
    /// Exact `SUM(D.v)` over `C ⋈ D`.
    pub cd_sum: f64,
    /// Expected eddy output, sorted.
    pub filtered: Vec<Row>,
}

/// Generate the four tables from `seed`, with the answers every query
/// must give, computed apart from the program.
#[must_use]
pub fn generate(seed: u64, shape: &Shape) -> Input {
    let mut rng = Pcg32::new(seed);
    let a = rows(&mut rng, shape.big_rows, shape.big_rows);
    let b = rows(&mut rng, shape.big_rows, shape.big_rows);
    let c = rows(&mut rng, shape.small_rows, shape.small_rows);
    let d = rows(&mut rng, shape.small_rows, shape.small_rows);
    let table = |rs: &[[i64; 3]]| {
        let mut t = Table::new(schema());
        for r in rs {
            t.insert(to_row(r)).expect("rows match the schema");
        }
        t
    };
    let cd = nested_loop_join(&c, &d);
    let cd_sum = cd.iter().map(|r| r[5].as_f64().unwrap_or(0.0)).sum();
    let mut filtered: Vec<Row> =
        a.iter().filter(|r| eddy_oracle(r, shape.big_rows)).map(to_row).collect();
    filtered.sort();
    Input {
        tables: [table(&a), table(&b), table(&c), table(&d)],
        ab: nested_loop_join(&a, &b),
        cd,
        cd_sum,
        filtered,
    }
}

/// Run one query against `e`, each input a `StoreScan` over its own clone
/// of the engine. Returns the rows and, for the ripple join, its final
/// online aggregate.
fn run_query(
    q: Query,
    e: &StorageEngine,
    shape: &Shape,
    work: &WorkCounter,
) -> (Vec<Row>, Option<f64>) {
    let scan = |base: u64, len: usize| -> Box<dyn Operator> {
        Box::new(
            StoreScan::new(e.clone(), base, base + len as u64 - 1, schema(), work.clone())
                .expect("the engine is up"),
        )
    };
    let (big, small) = (shape.big_rows, shape.small_rows);
    match q {
        Query::Shj => {
            let l = scan(BASE_A, big);
            let r = scan(BASE_B, big);
            let mut j = SymmetricHashJoin::new(l, r, vec![1], vec![1], work.clone());
            (drain(&mut j, STALLS), None)
        }
        Query::Ripple => {
            let l = scan(BASE_C, small);
            let r = scan(BASE_D, small);
            let block = shape.ripple_block;
            let mut j =
                RippleJoin::new(l, r, vec![1], vec![1], block, AggKind::Sum(5), work.clone());
            let rows = drain(&mut j, STALLS);
            (rows, Some(j.estimate(None, None).running))
        }
        Query::Xjoin => {
            let l = scan(BASE_C, small);
            let r = scan(BASE_D, small);
            let mut j = XJoin::new(l, r, vec![1], vec![1], shape.xjoin_budget, work.clone());
            (drain(&mut j, STALLS), None)
        }
        Query::Eddy => {
            let mut eddy = Eddy::new(scan(BASE_A, big), eddy_preds(big), work.clone());
            (drain(&mut eddy, STALLS), None)
        }
    }
}

/// Checks failed on one query's output: the rows must equal the expected
/// multiset, and the ripple join's final aggregate the exact sum.
#[must_use]
pub fn check(q: Query, mut rows: Vec<Row>, agg: Option<f64>, input: &Input) -> u64 {
    rows.sort();
    let expected = match q {
        Query::Shj => &input.ab,
        Query::Ripple | Query::Xjoin => &input.cd,
        Query::Eddy => &input.filtered,
    };
    let agg_ok = q != Query::Ripple || agg == Some(input.cd_sum);
    u64::from(rows != *expected) + u64::from(!agg_ok)
}

#[derive(Debug, Default)]
struct Layer {
    queries: u64,
    work_ops: u64,
    rows_out: u64,
    probes: u64,
    spills: u64,
    unspills: u64,
    scan_rows: u64,
    scan_unspills: u64,
}

/// The `join` workload.
#[derive(Debug)]
pub struct Join {
    shape: Shape,
    input: Input,
    engine: Option<StorageEngine>,
    layer: Layer,
}

impl Join {
    /// The benchmark's `join` for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_shape(seed, SHAPE)
    }

    /// A `join` of any shape.
    #[must_use]
    pub fn with_shape(seed: u64, shape: Shape) -> Self {
        Self { shape, input: generate(seed, &shape), engine: None, layer: Layer::default() }
    }
}

impl Workload for Join {
    fn name(&self) -> &'static str {
        "join"
    }

    /// A query takes one to five milliseconds.
    fn window(&self) -> usize {
        1
    }

    /// Persist the four tables into one engine.
    fn setup(&mut self) {
        self.engine = None;
        let mut e = StorageEngine::new(self.shape.pool_frames);
        for (t, base) in self.input.tables.iter().zip([BASE_A, BASE_B, BASE_C, BASE_D]) {
            persist_table(t, base, &mut e).expect("rows fit a page");
        }
        self.engine = Some(e);
    }

    /// One pass of the mix, untimed.
    fn warm_up(&mut self) -> u64 {
        let e = self.engine.as_ref().expect("set up before warm-up");
        MIX.iter()
            .map(|&q| {
                let (rows, agg) = run_query(q, e, &self.shape, &WorkCounter::new());
                check(q, rows, agg, &self.input)
            })
            .sum()
    }

    fn round(&mut self, meter: &mut Meter<'_>, hub: Option<&ObsHandle>) -> Round {
        let template = self.engine.as_ref().expect("set up before a round");
        let armed = hub.map(|h| {
            let mut e = template.clone();
            e.arm_obs(h.clone());
            e
        });
        let e = armed.as_ref().unwrap_or(template);
        let (mut ops, mut failed) = (0, 0);
        for &q in &MIX {
            let work = WorkCounter::new();
            let (rows, agg) = meter.time(q.span(), || run_query(q, e, &self.shape, &work));
            if hub.is_some() {
                let w = work.snapshot();
                let l = &mut self.layer;
                l.queries += 1;
                l.work_ops += w.total_ops();
                l.rows_out += rows.len() as u64;
                l.probes += w.hash_probes;
                l.spills += w.spills;
                l.unspills += w.unspills;
                let scanned = match q {
                    Query::Shj => 2 * self.shape.big_rows,
                    Query::Ripple => 2 * self.shape.small_rows,
                    Query::Eddy => self.shape.big_rows,
                    // XJoin's own spills are unspilled too.
                    Query::Xjoin => 0,
                };
                if scanned > 0 {
                    l.scan_rows += scanned as u64;
                    l.scan_unspills += w.unspills;
                }
            }
            ops += 1;
            failed += check(q, rows, agg, &self.input);
        }
        Round { ops, failed }
    }

    fn layer_metrics(&mut self, trace: &mut Trace, _seconds: f64) -> Vec<Metric> {
        let template = self.engine.as_ref().expect("set up before the traced pass");
        for _ in 0..100 {
            let clone = trace.time("store.engine_clone", || template.clone());
            drop(clone);
        }
        let l = &self.layer;
        let q = l.queries.max(1) as f64;
        let hit = 100.0 * (1.0 - l.scan_unspills as f64 / l.scan_rows.max(1) as f64);
        vec![
            Metric::new("query.work_ops_per_query", l.work_ops as f64 / q, "count"),
            Metric::new("query.rows_out_per_query", l.rows_out as f64 / q, "count"),
            Metric::new("query.hash_probes_per_query", l.probes as f64 / q, "count"),
            Metric::new("query.spills_per_query", l.spills as f64 / q, "count"),
            Metric::new("query.unspills_per_query", l.unspills as f64 / q, "count"),
            Metric::new("query.shj_us", median_us(&trace.durations("query.shj")), "us"),
            Metric::new("query.ripple_us", median_us(&trace.durations("query.ripple")), "us"),
            Metric::new("query.xjoin_us", median_us(&trace.durations("query.xjoin")), "us"),
            Metric::new("query.eddy_us", median_us(&trace.durations("query.eddy")), "us"),
            Metric::new(
                "store.engine_clone_us",
                median_us(&trace.durations("store.engine_clone")),
                "us",
            ),
            Metric::new("store.scan.pool.hit_pct", hit, "%"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_loop_join_by_hand() {
        let l = [[0, 1, 10], [1, 2, 11], [2, 1, 12]];
        let r = [[0, 1, 20], [1, 3, 21], [2, 1, 22]];
        let got = nested_loop_join(&l, &r);
        let want: Vec<Row> = [
            [0, 1, 10, 0, 1, 20],
            [0, 1, 10, 2, 1, 22],
            [2, 1, 12, 0, 1, 20],
            [2, 1, 12, 2, 1, 22],
        ]
        .iter()
        .map(|r| r.iter().map(|&x| Value::Int(x)).collect())
        .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn eddy_oracle_by_hand() {
        // n = 100: v < 700, k >= 20, id < 90.
        assert!(eddy_oracle(&[5, 20, 699], 100));
        assert!(!eddy_oracle(&[5, 19, 0], 100));
        assert!(!eddy_oracle(&[90, 50, 0], 100));
        assert!(!eddy_oracle(&[5, 50, 700], 100));
    }

    #[test]
    fn checks_catch_a_missing_row_a_duplicate_and_a_wrong_sum() {
        let shape = Shape { big_rows: 30, small_rows: 12, ..SHAPE };
        let input = generate(9, &shape);
        let mut rows = input.ab.clone();
        rows.reverse();
        assert_eq!(check(Query::Shj, rows.clone(), None, &input), 0, "order does not matter");
        let dup = rows[0].clone();
        rows.push(dup);
        assert_eq!(check(Query::Xjoin, rows, None, &input), 1);
        assert_eq!(check(Query::Ripple, input.cd.clone(), Some(input.cd_sum), &input), 0);
        assert_eq!(check(Query::Ripple, input.cd.clone(), Some(input.cd_sum + 1.0), &input), 1);
        assert_eq!(check(Query::Eddy, input.filtered[1..].to_vec(), None, &input), 1);
    }
}

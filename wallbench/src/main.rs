//! Wall-clock benchmark of the database machine.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload <crowd|kv|switch|join|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`), it runs the named workload (or all four, one
//! after another) on one thread in a closed loop and prints the five
//! end-to-end metrics. Traced (`--trace 1`), it runs a traced pass of
//! every workload, the named one first, arms the program's obs hub,
//! records its own spans around each call into a layer, writes them to
//! `wallbench/out/` as one Chrome trace per workload, and prints the
//! per-layer metrics.
//! The last line of standard output is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod alloc;
mod crowd;
mod harness;
mod join;
mod kv;
mod stats;
mod switch;

use harness::{Metric, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Every workload, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["crowd", "kv", "switch", "join"];

const USAGE: &str =
    "usage: wallbench [--workload crowd|kv|switch|join|all] [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args { workload: "all".to_owned(), seed: 42, seconds: 10.0, trace: false };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload.clone_from(&value),
            "--seed" => a.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| format!("bad value for {flag}: {value}"))?;
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {}", a.workload));
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {}", a.seconds));
    }
    Ok(a)
}

fn make(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "crowd" => Box::new(crowd::Crowd::new(seed)),
        "kv" => Box::new(kv::Kv::new(seed)),
        "switch" => Box::new(switch::Switch::new(seed)),
        _ => Box::new(join::Join::new(seed)),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { -1.0 };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("== {title}");
    for m in metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn run_untraced(args: &Args, ref_before: &[f64]) -> (u64, u64, Vec<Metric>) {
    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let (mut attempted, mut failed, mut all) = (0, 0, Vec::new());
    for name in &names {
        let mut w = make(name, args.seed);
        let e = harness::run_end_to_end(w.as_mut(), args.seconds);
        println!(
            "# {name}: seed={} rounds={} calls_per_round={} setups={} in {} batches attempted={} \
             failed={}",
            args.seed, e.rounds, e.calls, e.setups, e.setup_batches, e.attempted, e.failed
        );
        print_table(name, &e.metrics());
        attempted += e.attempted;
        failed += e.failed;
        let prefix = if names.len() > 1 { format!("{name}.") } else { String::new() };
        all.extend(e.metrics().into_iter().map(|m| Metric { name: prefix.clone() + &m.name, ..m }));
    }
    let ref_after = stats::ref_kernel_us();
    println!(
        "# host.ref_kernel_us before={:.1} after={:.1} nproc={}",
        stats::median(ref_before).unwrap_or(0.0),
        stats::median(&ref_after).unwrap_or(0.0),
        nproc()
    );
    (attempted, failed, all)
}

fn run_traced(args: &Args, ref_before: &[f64]) -> (u64, u64, Vec<Metric>) {
    let mut order: Vec<&str> = WORKLOADS.to_vec();
    if let Some(i) = order.iter().position(|w| *w == args.workload) {
        order[..=i].rotate_right(1);
    }
    let slice = args.seconds / order.len() as f64;
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for name in order {
        let mut w = make(name, args.seed);
        let mut trace = harness::Trace::new();
        let pass = harness::run_traced(w.as_mut(), slice, &mut trace);
        println!("# {name}: traced attempted={} failed={}", pass.attempted, pass.failed);
        attempted += pass.attempted;
        failed += pass.failed;
        metrics.extend(pass.metrics);
        let path = format!("wallbench/out/trace-{name}-{}.json", args.seed);
        let json = trace.chrome_json(&format!("wallbench {name} seed {}", args.seed));
        match std::fs::create_dir_all("wallbench/out").and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("# spans written to {path}"),
            Err(e) => println!("# spans not written to {path}: {e}"),
        }
    }
    let mut host = ref_before.to_vec();
    host.extend(stats::ref_kernel_us());
    metrics.insert(0, Metric::new("host.ref_kernel_us", stats::median(&host).unwrap_or(0.0), "us"));
    print_table(&format!("per-layer, nproc={}", nproc()), &metrics);
    (attempted, failed, metrics)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            println!("wallbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ref_before = stats::ref_kernel_us();
    let (attempted, failed, metrics) =
        if args.trace { run_traced(&args, &ref_before) } else { run_untraced(&args, &ref_before) };
    println!("{}", result_json(attempted, failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload kv --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a, Args { workload: "kv".into(), seed: 7, seconds: 3.0, trace: true });
        assert_eq!(args("").unwrap().workload, "all");
        assert!(args("--workload disk").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(10, 0, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_json(10, 1, &[]).starts_with("{\"correct\": false"));
    }

    /// Every workload, at a small scale, passes every check on two seeds
    /// whose inputs differ.
    #[test]
    fn two_seeds_change_the_inputs_and_pass_every_check() {
        let mut digests = Vec::new();
        for seed in [42, 7] {
            let small_kv = kv::Shape { records: 600, pool_frames: 4, round_ops: 800, ..kv::SHAPE };
            let small_join =
                join::Shape { big_rows: 120, small_rows: 40, xjoin_budget: 10, ..join::SHAPE };
            let mut ws: Vec<Box<dyn Workload>> = vec![
                Box::new(crowd::Crowd::with_params(seed, crowd::storm(seed, 100.0))),
                Box::new(kv::Kv::with_shape(seed, small_kv)),
                Box::new(switch::Switch::with_txns(seed, 20)),
                Box::new(join::Join::with_shape(seed, small_join)),
            ];
            for w in &mut ws {
                let e = harness::run_end_to_end(w.as_mut(), 0.01);
                assert!(e.attempted > 0, "{} attempted nothing", w.name());
                assert_eq!(e.failed, 0, "{} failed a check at seed {seed}", w.name());
                let mut trace = harness::Trace::new();
                let t = harness::run_traced(w.as_mut(), 0.01, &mut trace);
                assert_eq!(t.failed, 0, "{} failed a traced check at seed {seed}", w.name());
            }
            digests.push((
                crowd::storm(seed, 1.0),
                kv::generate(seed, &small_kv).arena,
                join::generate(seed, &small_join).ab,
                txn_state(seed),
            ));
        }
        assert_ne!(digests[0].0, digests[1].0, "crowd inputs");
        assert_ne!(digests[0].1, digests[1].1, "kv inputs");
        assert_ne!(digests[0].2, digests[1].2, "join inputs");
        assert_ne!(digests[0].3, digests[1].3, "switch inputs");
    }

    fn txn_state(seed: u64) -> Vec<u64> {
        let (shards, _) = adm_core::scenario::txnrep::seeded_world(seed, 3);
        shards.values().map(txn::DataComponent::digest).collect()
    }
}

//! Benchmark of the delta-rule repair engine: end-to-end figures with
//! tracing off, per-layer figures from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-sweep --seed 1 --seconds 55 --trace 0
//! ```
//!
//! One client thread drives a closed loop: it sets the workload up, runs
//! a fixed number of rounds on it, and repeats while another such epoch
//! fits in `--seconds`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod check;
mod ctx;
mod data;
mod durable;
mod stats;
mod sweep;
mod trace;

use ctx::Ctx;
use data::{Dataset, Universe};
use repair_core::RepairSession;
use stats::Samples;
use std::time::Instant;

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("op_gmean_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload in the traced run; a
/// layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("datagen.generate_ms", "ms"),
    ("storage.mutate_ms", "ms"),
    ("storage.compact_ms", "ms"),
    ("storage.dead_ratio", "ratio"),
    ("storage.journal_rows", "count"),
    ("disk.wal_bytes_per_batch", "bytes"),
    ("disk.snapshot_bytes", "bytes"),
    ("disk.open_ms", "ms"),
    ("disk.replayed_records", "count"),
    ("datalog.plan_ms", "ms"),
    ("datalog.hyp_enum_ms", "ms"),
    ("datalog.hyp_assignments", "count"),
    ("provenance.formula_ms", "ms"),
    ("provenance.clauses", "count"),
    ("provenance.graph_ms", "ms"),
    ("sat.solve_ms", "ms"),
    ("sat.decisions", "count"),
    ("sat.components", "count"),
    ("sat.cnf_clauses", "count"),
    ("engine.end_ms", "ms"),
    ("engine.end_rounds", "count"),
    ("engine.end_assignments", "count"),
    ("engine.stage_ms", "ms"),
    ("engine.stage_rounds", "count"),
    ("step.traverse_ms", "ms"),
    ("independent.process_ms", "ms"),
    ("engine.advance_ms", "ms"),
    ("engine.retracted", "count"),
    ("engine.rederived", "count"),
    ("engine.dropped_assignments", "count"),
    ("engine.new_assignments", "count"),
    ("engine.advance_rounds", "count"),
    ("session.route.full", "count"),
    ("session.route.certificate", "count"),
    ("session.route.incremental", "count"),
    ("session.replans", "count"),
    ("session.repair_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Spans whose self time is a per-layer metric.
const TIMED_SPANS: [(&str, &str); 8] = [
    ("datalog.hyp_enum", "datalog.hyp_enum_ms"),
    ("provenance.formula", "provenance.formula_ms"),
    ("engine.end", "engine.end_ms"),
    ("engine.stage", "engine.stage_ms"),
    ("storage.mutate", "storage.mutate_ms"),
    ("storage.compact", "storage.compact_ms"),
    ("engine.advance", "engine.advance_ms"),
    ("session.repair", "session.repair_ms"),
];

/// Epochs (a set-up and its rounds) every timed run completes at least.
/// A traced run alternates untraced and traced epochs, the untraced ones
/// being the baseline of the tracing overhead, and completes at least one
/// of each.
const MIN_EPOCHS: usize = 2;

const WORKLOADS: [&str; 2] = ["paper-sweep", "durable-restart"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad --seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// Generate a dataset, timing the generator as the `datagen` layer.
pub fn generate(ctx: &mut Ctx, universe: Universe, scale_factor: f64, seed: u64) -> Dataset {
    let (data, ms) = Ctx::timed(|| Dataset::generate(universe, scale_factor, seed));
    ctx.layer("datagen.generate_ms", ms);
    if ctx.setups == 0 {
        eprintln!(
            "  data {universe:?} scale {scale_factor} seed {seed}: {} rows",
            data.db.total_rows()
        );
    }
    data
}

/// Build a session for one program. Traced set-ups also plan the program
/// once more on a copy of the instance, timing `Evaluator::new` as the
/// `datalog` layer's planning cost.
pub fn session(ctx: &mut Ctx, data: &Dataset, name: &str) -> RepairSession {
    let program = data.program(name);
    if ctx.traced {
        let mut copy = data.db.clone();
        let (ev, ms) = Ctx::timed(|| datalog::Evaluator::new(&mut copy, program.clone()));
        ev.expect("workload programs are valid");
        ctx.layer("datalog.plan_ms", ms);
    }
    RepairSession::new(data.db.clone(), program).unwrap_or_else(|e| panic!("workload {name}: {e}"))
}

enum Bench {
    Sweep(sweep::Sweep),
    Durable(Box<durable::Durable>),
}

impl Bench {
    /// Set the workload up; the sweep starts from the reference
    /// delete-sets of the run's first sweep.
    fn setup(workload: &str, seed: u64, ctx: &mut Ctx, refs: sweep::References) -> Bench {
        match workload {
            "paper-sweep" => Bench::Sweep(sweep::Sweep::setup(seed, ctx, refs)),
            "durable-restart" => Bench::Durable(Box::new(durable::Durable::setup(seed, ctx))),
            _ => unreachable!("workload names are checked at parse time"),
        }
    }

    /// Rounds per set-up. Sweep rounds repeat the same requests on
    /// unchanging sessions; durable-restart rounds churn the store further,
    /// so every set-up runs the same sequence of them.
    fn rounds(workload: &str) -> usize {
        match workload {
            "paper-sweep" => 4,
            _ => durable::ROUNDS,
        }
    }

    /// The checks a timed run leaves until after its peak memory is read.
    fn final_check(&mut self, ctx: &mut Ctx) {
        if let Bench::Durable(d) = self {
            d.final_check(ctx);
        }
    }

    fn round(&mut self, ctx: &mut Ctx) {
        match self {
            Bench::Sweep(s) => s.round(ctx),
            Bench::Durable(d) => d.round(ctx),
        }
    }

    /// Release what was set up, keeping the sweep's reference
    /// delete-sets for the next set-up.
    fn finish(self) -> sweep::References {
        match self {
            Bench::Sweep(s) => s.into_references(),
            Bench::Durable(d) => {
                d.finish();
                Default::default()
            }
        }
    }
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut ctx = Ctx::default();

    // Closed loop of whole epochs: set up, then run the workload's rounds
    // on what was set up. `setup_s` is the median of the timed run's
    // set-ups. Another epoch starts only while it is expected to end
    // within `--seconds`, judged by the longest epoch so far.
    ctx.full_checks = args.trace;
    let rounds_per_setup = Bench::rounds(&args.workload);
    let mut setup_s = Samples::default();
    let mut bench: Option<Bench> = None;
    let (mut rounds, mut traced_rounds, mut epochs) = (0, 0, 0);
    let mut longest_epoch = 0.0f64;
    let start = Instant::now();
    loop {
        let epoch_start = start.elapsed().as_secs_f64();
        let traced = args.trace && epochs % 2 == 1;
        ctx.traced = traced;
        let mark = ctx.tracer.mark();
        let refs = bench.take().map(Bench::finish).unwrap_or_default();
        let (b, ms) = Ctx::timed(|| Bench::setup(&args.workload, args.seed, &mut ctx, refs));
        let b = bench.insert(b);
        setup_s.push(ms / 1e3);
        ctx.setups += 1;
        if traced {
            ctx.end_traced_round(mark, &TIMED_SPANS);
        }
        ctx.round_layers.clear();
        for _ in 0..rounds_per_setup {
            ctx.traced = traced;
            let mark = ctx.tracer.mark();
            b.round(&mut ctx);
            if traced {
                ctx.end_traced_round(mark, &TIMED_SPANS);
                traced_rounds += 1;
            } else {
                rounds += 1;
            }
            ctx.round_layers.clear();
        }
        epochs += 1;
        let now = start.elapsed().as_secs_f64();
        longest_epoch = longest_epoch.max(now - epoch_start);
        if epochs >= MIN_EPOCHS && now + longest_epoch > args.seconds {
            break;
        }
    }
    ctx.traced = false;
    let mut bench = bench.expect("at least one set-up");

    let peak = stats::peak_rss_mb();
    ctx.check(peak.is_some(), || "cannot read peak RSS".into());
    bench.final_check(&mut ctx);
    bench.finish();

    eprintln!(
        "perfbench {} seed {}: {} set-ups, {} rounds untraced, {} traced, {:.1} s",
        args.workload,
        args.seed,
        ctx.setups,
        rounds,
        traced_rounds,
        start.elapsed().as_secs_f64()
    );
    // The workload's own figures, by the names the README uses: median,
    // the highest percentile with ten samples beyond it, and the count.
    let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.3}"));
    let tail = |s: &Samples| match s.highest_supported_percentile() {
        Some(p) => format!("p{p} {}", fmt(s.percentile(f64::from(p)))),
        None => "-".to_string(),
    };
    eprintln!(
        "  {:<34} {:>12} {:>16} {:>6} {:>8}",
        "figure", "median", "tail", "unit", "samples"
    );
    let repairs = ("ms", ctx.repair_ms.clone());
    let setups = ("s", setup_s.clone());
    let figures = ctx
        .detail
        .iter()
        .chain([(&"any_repair_ms", &repairs), (&"setup_s", &setups)]);
    for (name, (unit, s)) in figures {
        let (median, tail) = (fmt(s.median()), tail(s));
        eprintln!(
            "  {name:<34} {median:>12} {tail:>16} {unit:>6} {:>8}",
            s.len()
        );
    }
    eprintln!(
        "  {:<34} {:>12} {:>12} {:>6} {:>8}",
        "operation", "median", "fastest", "unit", "samples"
    );
    for (key, (_, s)) in &ctx.op_ms {
        let (median, fastest) = (fmt(s.median()), fmt(Some(s.min())));
        eprintln!(
            "  {key:<34} {median:>12} {fastest:>12} {:>6} {:>8}",
            "ms",
            s.len()
        );
    }

    let mut metrics: Vec<(&str, &str, f64, usize)> = Vec::new();
    if args.trace {
        let traced = ctx.fastest_round_ms(true, traced_rounds, false);
        if let (Some(t), Some(u)) = (traced, ctx.fastest_round_ms(false, rounds, false)) {
            ctx.layers
                .entry("trace.overhead_pct")
                .or_default()
                .push((t / u - 1.0) * 100.0);
        }
        for (name, unit) in PER_LAYER {
            let s = ctx.layers.get(name).cloned().unwrap_or_default();
            metrics.push((name, unit, s.median().unwrap_or(0.0), s.len()));
        }
    } else {
        eprintln!(
            "  round_ms (operations of a round, fastest, summed): {} ms, repair requests {} ms",
            fmt(ctx.fastest_round_ms(false, rounds, false)),
            fmt(ctx.fastest_round_ms(false, rounds, true))
        );
        let values = [
            (setup_s.median(), setup_s.len()),
            (ctx.fastest_gmean_ms(), ctx.op_ms.len()),
            (peak, 1),
        ];
        for ((name, unit), (value, n)) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, unit, value.unwrap_or(f64::NAN), n));
        }
    }
    eprintln!(
        "  {:<34} {:>12} {:>12} {:>6} {:>8}",
        "metric", "value", "", "unit", "samples"
    );
    for (name, unit, value, n) in &metrics {
        eprintln!("  {name:<34} {value:>12.3} {:>12} {unit:>6} {n:>8}", "");
    }
    eprintln!(
        "  attempted {} failed {} correct {}; output checks took {:.1} s",
        ctx.attempted,
        ctx.failed,
        ctx.correct(),
        ctx.check_ms / 1e3
    );

    if args.trace {
        let path = std::path::PathBuf::from(format!(
            ".bench_out/trace-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = ctx.tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("  {} spans written to {}", ctx.tracer.len(), path.display());
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value, _)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.correct(),
        ctx.attempted,
        ctx.failed,
        body.join(", ")
    );
}

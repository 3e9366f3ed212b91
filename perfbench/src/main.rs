//! The wave-indices benchmark: three workloads, end-to-end metrics
//! from an untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! perfbench --workload <daily|serve|ingest-commit> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --selftest
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The line before it carries the run's metadata. See `README.md`.

mod cell;
mod json;
mod layers;
mod record;
mod stats;
mod store;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use stats::{pct, plain, Metric, MIN_BEYOND};
use trace::Tracer;
use workloads::{Env, Outcome, BLOCK_BYTES};

/// `--seconds` at which a workload runs its reference plan; other
/// values scale the plan's length proportionally.
const REFERENCE_SECONDS: f64 = 20.0;

const WORKLOADS: [&str; 3] = ["daily", "serve", "ingest-commit"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: REFERENCE_SECONDS,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--selftest" => args.selftest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.selftest && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(
    name: &str,
    seed: u64,
    scale: f64,
    tracer: &Tracer,
    workdir: &std::path::Path,
) -> Outcome {
    let env = Env {
        seed,
        scale,
        tracer,
        workdir: workdir.to_path_buf(),
    };
    match name {
        "daily" => workloads::daily(&env),
        "serve" => workloads::serve(&env),
        _ => workloads::ingest_commit(&env),
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Only medians of
/// wall times are gated: on a shared 2-vCPU machine their tails move by
/// more than any usable bound from run to run, so tails are reported
/// in the metadata line instead.
fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let r = &o.rec;
    let space_amp = stats::ratio(
        (o.peak_blocks * BLOCK_BYTES) as f64,
        o.live_user_bytes as f64,
    );
    let write_amp = stats::ratio(
        (r.blocks_written * BLOCK_BYTES + r.store_bytes) as f64,
        r.user_bytes_ingested as f64,
    );
    vec![
        // The median of the run's set-ups (not a percentile of one
        // series, so not held to the samples-beyond rule).
        plain("setup_s", r.setup_s.p50(), "s"),
        pct("day_wall_ms_p50", &r.day_wall_ms, 0.5, "ms"),
        plain("day_sim_s", r.day_sim_s.mean(), "s"),
        pct("probe_wall_us_p50", &r.probe_wall_us, 0.5, "us"),
        plain("probe_sim_ms", r.probe_sim_ms.mean(), "ms"),
        pct("batch_wall_us_p50", &r.batch_wall_us, 0.5, "us"),
        pct("scan_wall_us_p50", &r.scan_wall_us, 0.5, "us"),
        pct("commit_wall_ms_p50", &r.commit_wall_ms, 0.5, "ms"),
        pct("recover_wall_ms_p50", &r.recover_wall_ms, 0.5, "ms"),
        plain("space_amp", space_amp, "ratio"),
        plain("write_amp", write_amp, "ratio"),
    ]
}

/// Bases of the ratios, for the metadata line.
fn bases(o: &Outcome) -> Json {
    let r = &o.rec;
    let mut b = Json::object();
    b.num("peak_blocks", o.peak_blocks as f64)
        .num("live_user_bytes", o.live_user_bytes as f64)
        .num("blocks_written", r.blocks_written as f64)
        .num("store_bytes", r.store_bytes as f64)
        .num("user_bytes_ingested", r.user_bytes_ingested as f64)
        .num("setup_reps", r.setup_s.len() as f64)
        .num("steady_days", r.day_sim_s.len() as f64)
        .num("probes", r.probe_sim_ms.len() as f64);
    b
}

fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workdir = WorkDir(
        PathBuf::from(".bench_build").join(format!("perfbench-work-{}", std::process::id())),
    );
    if let Err(e) = std::fs::create_dir_all(&workdir.0) {
        eprintln!("perfbench: cannot create {}: {e}", workdir.0.display());
        return ExitCode::from(2);
    }
    if args.selftest {
        return if layers::selftest(&workdir.0, args.seed) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let scale = args.seconds / REFERENCE_SECONDS;
    let wall = Instant::now();

    let tracer = Tracer::new(args.trace);
    let mut outcome = run_workload(&args.workload, args.seed, scale, &tracer, &workdir.0);
    layers::check_zero_counters(&mut outcome);
    let metrics = if args.trace {
        let overhead = outcome.rec.trace_overhead();
        let spans =
            PathBuf::from(".bench_build").join(format!("perfbench-spans-{}.jsonl", args.workload));
        if let Err(e) = tracer.write_jsonl(&spans) {
            eprintln!("perfbench: writing {}: {e}", spans.display());
        }
        layers::print_self_times(&tracer);
        layers::per_layer(&outcome, &tracer, overhead)
    } else {
        end_to_end(&outcome)
    };

    // Every reported percentile needs MIN_BEYOND samples beyond it
    // (a traced run reports no end-to-end metric).
    let mut support = Json::object();
    for m in end_to_end(&outcome).into_iter().filter(|_| !args.trace) {
        if let Some(q) = m.support {
            let mut s = Json::object();
            s.num("samples", q.samples as f64)
                .num("beyond", q.beyond as f64);
            support.obj(&m.name, s);
            outcome.rec.attempted += 1;
            if q.beyond < MIN_BEYOND {
                outcome.rec.fail(format!(
                    "{} has {} samples beyond it (needs {MIN_BEYOND})",
                    m.name, q.beyond
                ));
            }
        } else if m.name.ends_with("_p50") {
            outcome.rec.fail(format!("{} has no samples", m.name));
        }
    }
    let (attempted, failed, failures) = (
        outcome.rec.attempted,
        outcome.rec.failed,
        &outcome.rec.failures,
    );
    for f in failures {
        eprintln!("perfbench: FAILED {f}");
    }

    // Every tail of every timed series, for reading the spread of the
    // gated percentiles against their neighbours.
    let mut tails = Json::object();
    let r = &outcome.rec;
    for (name, series) in [
        ("day_wall_ms", &r.day_wall_ms),
        ("probe_wall_us", &r.probe_wall_us),
        ("server_probe_wall_us", &r.server_probe_wall_us),
        ("batch_wall_us", &r.batch_wall_us),
        ("scan_wall_us", &r.scan_wall_us),
        ("commit_wall_ms", &r.commit_wall_ms),
        ("recover_wall_ms", &r.recover_wall_ms),
    ] {
        let mut t = Json::object();
        for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p999", 0.999)] {
            if let Some(v) = series.quantile(q).filter(|v| v.beyond >= MIN_BEYOND) {
                t.num(label, v.value);
            }
        }
        t.num("mean", series.mean());
        tails.obj(name, t);
    }
    let mut meta = Json::object();
    meta.str("workload", &args.workload)
        .num("seed", args.seed as f64)
        .num("seconds", args.seconds)
        .num("trace", args.trace as u8 as f64)
        .num("nproc", nproc() as f64)
        .str("commit", &git_commit())
        .num("wave_blocks", outcome.wave_blocks as f64)
        .num("cache_blocks", outcome.cache_blocks as f64)
        .num("transitions", outcome.transitions as f64)
        .num("run_wall_s", wall.elapsed().as_secs_f64())
        .num("timed_s", outcome.rec.timed_s())
        .obj("samples", support)
        .obj("tails", tails)
        .obj("bases", bases(&outcome))
        .strs("cells", &outcome.cells)
        .strs("failures", failures);
    let mut top = Json::object();
    top.obj("meta", meta);
    println!("{}", top.render());

    let mut result = Json::object();
    let mut mj = Json::object();
    for m in &metrics {
        eprintln!("perfbench: {:<34} {:>14.6} {}", m.name, m.value, m.unit);
        let mut v = Json::object();
        v.num("value", m.value).str("unit", m.unit);
        mj.obj(&m.name, v);
    }
    result
        .bool("correct", failed == 0)
        .num("attempted", attempted.max(1) as f64)
        .num("failed", failed as f64)
        .obj("metrics", mj);
    println!("{}", result.render());
    ExitCode::SUCCESS
}

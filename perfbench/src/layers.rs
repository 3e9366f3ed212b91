//! Per-layer metrics from the traced run, the counters that must stay
//! at zero, and the determinism self-test.

use std::collections::BTreeMap;
use std::path::Path;

use wave_index::prelude::SchemeKind;

use crate::cell::{scheme_key, tech_key};
use crate::json::Json;
use crate::stats::{pct, plain, ratio, Metric, Samples};
use crate::trace::{SpanStats, Tracer};
use crate::workloads::{self, Env, Outcome, TECHS};

/// Counters that must read zero after any run: a degraded query or a
/// repair on a clean store is a failed operation.
pub fn check_zero_counters(o: &mut Outcome) {
    let checks = [
        (
            "server.degraded_queries",
            o.counts.get("server.degraded_queries"),
        ),
        ("server.read_retries", o.counts.get("server.read_retries")),
        ("recover.rebuilds", o.recover_counts.get("recover.rebuilds")),
        (
            "recover.rollbacks",
            o.recover_counts.get("recover.rollbacks"),
        ),
    ];
    for (name, n) in checks {
        o.rec.attempted += 1;
        if n != 0 {
            o.rec.fail(format!("{name} = {n}, must be 0"));
        }
    }
}

/// p50 of a span's durations, in `1/div` of a nanosecond.
fn span_p50(spans: &BTreeMap<&'static str, SpanStats>, name: &str, div: f64) -> f64 {
    spans.get(name).map_or(0.0, |s| s.durations_ns.p50() / div)
}

fn per_day(n: u64, o: &Outcome) -> f64 {
    ratio(n as f64, o.transitions as f64)
}

/// Every per-layer metric of `BENCHMARK.json`, from the traced run.
/// A layer the workload does not reach reports 0.
pub fn per_layer(o: &Outcome, tracer: &Tracer, trace_overhead: f64) -> Vec<Metric> {
    let r = &o.rec;
    let c = &o.counts;
    let rc = &o.read_counts;
    let spans = tracer.summary();
    let probes = r.probe_sim_ms.len() as f64;
    let commits = r.commit_wall_ms.len() as f64;
    let mut m = vec![
        plain("disk.seeks_per_day", per_day(r.day_seeks, o), "count"),
        plain(
            "disk.blocks_written_per_day",
            per_day(r.day_blocks_written, o),
            "blocks",
        ),
        plain(
            "disk.seeks_per_probe",
            ratio(r.probe_seeks as f64, probes),
            "count",
        ),
        plain(
            "disk.blocks_read_per_probe",
            ratio(r.probe_blocks_read as f64, probes),
            "blocks",
        ),
        plain(
            "cache.hit_ratio",
            ratio(
                rc.get("cache.hits") as f64,
                (rc.get("cache.hits") + rc.get("cache.misses")) as f64,
            ),
            "ratio",
        ),
        plain("cache.evictions", rc.get("cache.evictions") as f64, "count"),
        plain("alloc.peak_blocks", o.peak_blocks as f64, "blocks"),
        plain("alloc.free_fragments", o.free_fragments as f64, "count"),
        plain("alloc.allocs_per_day", per_day(r.day_allocs, o), "count"),
        plain(
            "sched.merge_ratio",
            ratio(
                rc.get("sched.merged") as f64,
                rc.get("sched.requests") as f64,
            ),
            "ratio",
        ),
        plain(
            "sched.seeks_saved",
            rc.get("sched.seeks_saved") as f64,
            "count",
        ),
        plain(
            "sched.bulk_pages",
            rc.get("sched.bulk_pages") as f64,
            "count",
        ),
        plain(
            "sched.read_batch_wall_us_p50",
            span_p50(&spans, "sched.read_batch", 1e3),
            "us",
        ),
        plain("file.puts_per_commit", r.commit_puts.mean(), "count"),
        plain(
            "file.bytes_per_commit",
            r.commit_store_bytes.mean(),
            "bytes",
        ),
        pct("file.put_wall_ms_p50", &r.put_ms, 0.5, "ms"),
        pct("file.get_wall_ms_p50", &r.recover_get_ms, 0.5, "ms"),
        plain(
            "file.share_of_commit",
            ratio(r.commit_store_ms.sum(), r.commit_wall_ms.sum()),
            "ratio",
        ),
        plain(
            "directory.lookup_wall_ns_p50",
            span_p50(&spans, "directory.bucket_for", 1.0),
            "ns",
        ),
        plain("dir.probe_depth_mean", o.probe_depth_mean, "count"),
        plain(
            "filter.skip_ratio",
            ratio(
                rc.get("filter.skips") as f64,
                rc.get("filter.checks") as f64,
            ),
            "ratio",
        ),
        plain(
            "filter.fp_ratio",
            ratio(
                rc.get("filter.false_positives") as f64,
                (rc.get("filter.false_positives") + rc.get("filter.skips")) as f64,
            ),
            "ratio",
        ),
        plain(
            "filter.arm_elisions",
            rc.get("filter.arm_elisions") as f64,
            "count",
        ),
        plain(
            "filter.prune_wall_ns_p50",
            span_p50(&spans, "filter.prune_probe", 1.0),
            "ns",
        ),
        plain(
            "ingest.spills_per_day",
            per_day(c.get("ingest.spills"), o),
            "count",
        ),
        plain(
            "ingest.entries_per_spill",
            ratio(
                c.get("ingest.spilled_entries") as f64,
                c.get("ingest.spills") as f64,
            ),
            "count",
        ),
        pct(
            "ingest.pending_entries_p50",
            &r.pending_entries,
            0.5,
            "count",
        ),
        plain(
            "ingest.overlay_wall_ns_p50",
            span_p50(&spans, "ingest.overlay_pending", 1.0),
            "ns",
        ),
        plain(
            "ingest.log_bytes_per_commit",
            r.commit_log_bytes.mean(),
            "bytes",
        ),
        plain(
            "index.probe_in_wall_us_p50",
            span_p50(&spans, "index.probe_in", 1e3),
            "us",
        ),
        plain(
            "index.useful_entry_ratio",
            ratio(r.useful_entries as f64, r.bucket_entries as f64),
            "ratio",
        ),
        pct(
            "index.build_packed_wall_ms_p50",
            &r.build_packed_ms,
            0.5,
            "ms",
        ),
    ];
    for kind in SchemeKind::ALL {
        let key = scheme_key(kind);
        let wall = r.per_scheme_wall.get(key).cloned().unwrap_or_default();
        let mut sim = Samples::default();
        for tech in TECHS {
            if let Some(s) = r.per_cell_sim.get(&(key, tech_key(tech))) {
                sim.extend(s);
            }
        }
        m.push(pct(
            format!("schemes.{key}.day_wall_ms_p50"),
            &wall,
            0.5,
            "ms",
        ));
        m.push(plain(format!("schemes.{key}.day_sim_s"), sim.mean(), "s"));
    }
    for tech in TECHS {
        let key = tech_key(tech);
        let wall = r.per_tech_wall.get(key).cloned().unwrap_or_default();
        m.push(pct(
            format!("update.{key}.day_wall_ms_p50"),
            &wall,
            0.5,
            "ms",
        ));
    }
    let twin_or_cells = if r.twin_batch_wall_us.is_empty() {
        &r.batch_wall_us
    } else {
        &r.twin_batch_wall_us
    };
    m.extend([
        plain("schemes.precomp_sim_s", r.precomp_sim_s.mean(), "s"),
        plain("schemes.transition_sim_s", r.transition_sim_s.mean(), "s"),
        plain("schemes.post_sim_s", r.post_sim_s.mean(), "s"),
        plain(
            "wave.indexes_accessed_per_probe",
            ratio(r.indexes_accessed as f64, probes),
            "count",
        ),
        pct("wave.query_batch_wall_us_p50", twin_or_cells, 0.5, "us"),
        pct(
            "server.probe_wall_us_p50",
            &r.server_probe_wall_us,
            0.5,
            "us",
        ),
        pct(
            "server.fanout_overhead_us_p50",
            &r.fanout_overhead_us,
            0.5,
            "us",
        ),
        pct(
            "server.batch_overhead_us_p50",
            &r.batch_overhead_us,
            0.5,
            "us",
        ),
        plain(
            "server.parallel_speedup",
            ratio(r.serial_s, r.elapsed_s),
            "ratio",
        ),
        plain("server.arm_imbalance", o.arm_imbalance, "ratio"),
        plain(
            "server.read_retries",
            c.get("server.read_retries") as f64,
            "count",
        ),
        plain(
            "server.degraded_queries",
            c.get("server.degraded_queries") as f64,
            "count",
        ),
        pct("persist.encode_wall_ms_p50", &r.encode_ms, 0.5, "ms"),
        pct("persist.commit_self_ms_p50", &r.commit_self_ms, 0.5, "ms"),
        plain(
            "persist.files_per_commit",
            ratio(r.commit_files.sum(), commits),
            "count",
        ),
        pct("recovery.decode_wall_ms_p50", &r.decode_ms, 0.5, "ms"),
        pct("recovery.fsck_wall_ms_p50", &r.fsck_ms, 0.5, "ms"),
        plain(
            "recover.rebuilds",
            o.recover_counts.get("recover.rebuilds") as f64,
            "count",
        ),
        plain(
            "recover.rollbacks",
            o.recover_counts.get("recover.rollbacks") as f64,
            "count",
        ),
        plain("obs.trace_overhead", trace_overhead, "ratio"),
    ]);
    m
}

/// Self time per span name, to standard error.
pub fn print_self_times(tracer: &Tracer) {
    eprintln!(
        "perfbench: {:<28} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, s) in tracer.summary() {
        eprintln!(
            "perfbench: {name:<28} {:>9} {:>12.3} {:>12.3}",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        );
    }
}

/// What must repeat bit for bit under one seed: the four
/// deterministic end-to-end metrics and the registry counts of the
/// disk, cache, scheduler, filter and ingest layers.
fn signature(o: &Outcome) -> BTreeMap<String, u64> {
    let r = &o.rec;
    let mut sig: BTreeMap<String, u64> = o
        .counts
        .0
        .iter()
        .filter(|(k, _)| {
            ["disk.", "cache.", "sched.", "filter.", "ingest."]
                .iter()
                .any(|p| k.starts_with(p))
        })
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    sig.insert("day_sim_s".into(), r.day_sim_s.mean().to_bits());
    sig.insert("probe_sim_ms".into(), r.probe_sim_ms.mean().to_bits());
    sig.insert("peak_blocks".into(), o.peak_blocks);
    sig.insert("live_user_bytes".into(), o.live_user_bytes);
    sig.insert("blocks_written".into(), r.blocks_written);
    sig.insert("store_bytes".into(), r.store_bytes);
    sig
}

/// Runs a reduced plan of each workload twice with `seed` and once
/// with `seed + 1`: the first two must agree bit for bit, the third
/// must differ, and none may fail an operation.
pub fn selftest(workdir: &Path, seed: u64) -> bool {
    let tracer = Tracer::new(false);
    let mut all_ok = true;
    let mut report = Json::object();
    for name in ["daily", "serve", "ingest-commit"] {
        let run = |s: u64| {
            let env = Env {
                seed: s,
                scale: 0.1,
                tracer: &tracer,
                workdir: workdir.to_path_buf(),
            };
            let mut o = match name {
                "daily" => workloads::daily(&env),
                "serve" => workloads::serve(&env),
                _ => workloads::ingest_commit(&env),
            };
            check_zero_counters(&mut o);
            o
        };
        let (a, b, other) = (run(seed), run(seed), run(seed + 1));
        let (sa, sb, so) = (signature(&a), signature(&b), signature(&other));
        let same = sa == sb;
        let changed = sa != so;
        let failed = a.rec.failed + b.rec.failed + other.rec.failed;
        for f in a
            .rec
            .failures
            .iter()
            .chain(&b.rec.failures)
            .chain(&other.rec.failures)
        {
            eprintln!("perfbench: selftest {name}: FAILED {f}");
        }
        if !same {
            for (k, v) in &sa {
                if sb.get(k) != Some(v) {
                    eprintln!("perfbench: selftest {name}: {k} differs between equal-seed runs");
                }
            }
        }
        let ok = same && changed && failed == 0;
        all_ok &= ok;
        let mut w = Json::object();
        w.bool("repeats", same)
            .bool("seed_changes_it", changed)
            .num("failed", failed as f64)
            .num("compared", sa.len() as f64);
        report.obj(name, w);
    }
    let mut top = Json::object();
    top.obj("selftest", report).bool("passed", all_ok);
    println!("{}", top.render());
    all_ok
}

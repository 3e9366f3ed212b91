//! The three workloads. Each generates its inputs from the seed before
//! the timed operation that uses them, runs its set-up several times
//! (the median is `setup_s`), then runs a fixed, seed-determined plan.
//!
//! Every workload reports every end-to-end metric, so each one runs
//! every kind of operation; they differ in which operations carry the
//! load and in the settings the layers see (see `perfbench/README.md`).

use std::path::PathBuf;
use std::time::Instant;

use wave_index::parallel::PlacementStrategy;
use wave_index::prelude::*;
use wave_index::{
    ConstituentIndex, IndexResult, ServerBatchQuery, ServerConfig, ServerQuery, WaveServer,
};
use wave_obs::{Counter, MetricValue, Obs, SplitMix64};
use wave_storage::{DiskArray, BLOCK_SIZE};
use wave_workloads::{ArticleGenerator, QueryMix};

use crate::cell::{
    batch_phases, probe_slots, replay_build, replay_lookups, scheme_key, tech_key, Cell, CellSpec,
    DayAnswers, Stream, WINDOW,
};
use crate::record::{Counts, Recorder};
use crate::trace::Tracer;

/// SCAM article profile: vocabulary, words per article.
const VOCAB: usize = 5_000;
const WORDS: usize = 20;
/// Values in one batched probe.
const BATCH_VALUES: usize = 32;
const MIX_SALT: u64 = 0x0051_ED0F_5EED;
const BATCH_SALT: u64 = 0x0BA7_C4E5;
const OPS_SALT: u64 = 0x0D5_C0DE;

pub const TECHS: [UpdateTechnique; 3] = [
    UpdateTechnique::InPlace,
    UpdateTechnique::SimpleShadow,
    UpdateTechnique::PackedShadow,
];

/// Where a run may write, and how it is traced.
pub struct Env<'a> {
    pub seed: u64,
    /// Work relative to the reference plan (1.0 at the reference
    /// `--seconds`).
    pub scale: f64,
    pub tracer: &'a Tracer,
    pub workdir: PathBuf,
}

impl Env<'_> {
    fn rounds(&self, reference: u32) -> u32 {
        ((reference as f64 * self.scale).ceil() as u32).max(1)
    }

    fn store_dir(&self, i: usize) -> PathBuf {
        self.workdir.join(format!("store{i}"))
    }
}

/// What a workload run hands to the report.
pub struct Outcome {
    pub rec: Recorder,
    /// Registry growth over the measured phase.
    pub counts: Counts,
    /// Registry growth over the read-serving part (`serve`), else the
    /// whole measured phase.
    pub read_counts: Counts,
    pub recover_counts: Counts,
    pub probe_depth_mean: f64,
    /// Sum over the workload's volumes of their peak allocated blocks.
    pub peak_blocks: u64,
    /// User bytes (20 B per entry) of the windows those volumes hold.
    pub live_user_bytes: u64,
    pub free_fragments: u64,
    /// Blocks of the measured waves at the end, and the program's
    /// cache blocks over the same volumes.
    pub wave_blocks: u64,
    pub cache_blocks: u64,
    pub transitions: u64,
    pub arm_imbalance: f64,
    pub cells: Vec<String>,
}

fn outcome(rec: Recorder, obs: &Obs, start: &Counts) -> Outcome {
    let counts = Counts::of(obs).since(start);
    let probe_depth_mean = obs
        .registry()
        .snapshot()
        .into_iter()
        .find_map(|(name, v)| match v {
            MetricValue::Histogram { mean, .. } if name == "dir.probe_depth" => Some(mean),
            _ => None,
        })
        .unwrap_or(0.0);
    let recover_counts = Counts::of(&rec.recover_obs);
    Outcome {
        read_counts: counts.clone(),
        counts,
        recover_counts,
        probe_depth_mean,
        rec,
        peak_blocks: 0,
        live_user_bytes: 0,
        free_fragments: 0,
        wave_blocks: 0,
        cache_blocks: 0,
        transitions: 0,
        arm_imbalance: 0.0,
        cells: Vec::new(),
    }
}

/// Runs `build` `reps` times, timing each; keeps the last. The median
/// of the set-up times is `setup_s`.
fn repeat_setup<T>(
    rec: &mut Recorder,
    reps: usize,
    mut build: impl FnMut() -> IndexResult<T>,
    mut teardown: impl FnMut(T, &mut Recorder),
) -> Option<T> {
    for rep in 0..reps {
        let t = Instant::now();
        let built = build();
        rec.setup_s.push(t.elapsed().as_secs_f64());
        match built {
            Ok(x) if rep + 1 == reps => return Some(x),
            Ok(x) => teardown(x, rec),
            Err(e) => {
                rec.fail(format!("set-up: {e}"));
                return None;
            }
        }
    }
    None
}

/// The `BATCH_VALUES` Zipf-drawn values of cell `cell`'s batch on
/// `day`. Each cell draws its own, so every timed batch is a distinct
/// one.
fn batch_values(gen: &ArticleGenerator, seed: u64, day: Day, cell: usize) -> Vec<SearchValue> {
    let mut rng = SplitMix64::new(
        seed ^ BATCH_SALT
            ^ (day.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (cell as u64) << 48,
    );
    (0..BATCH_VALUES)
        .map(|_| gen.query_word(&mut rng))
        .collect()
}

/// The day loop of `daily` and `ingest-commit`.
struct Plan {
    articles: usize,
    /// Whole-window probes per cell per day (the SCAM mix).
    probes_per_day: usize,
    rounds: u32,
    setup_reps: usize,
    /// Commit (`commit_wave`) once in set-up, before any timed op.
    commit_in_setup: bool,
    /// Cell `i` commits on round `r` when `(r + i) % commit_every == 0`;
    /// every 2nd commit of a cell is followed by a recovery.
    commit_every: u32,
}

/// Every cell transitions each round, answers the day's probes, one
/// batch and a scan of its newest day; the plan picks when cells commit
/// and recover.
fn run_cells(env: &Env, specs: &[CellSpec], plan: &Plan) -> Outcome {
    let tracer = env.tracer;
    let mut gen = ArticleGenerator::new(VOCAB, plan.articles, WORDS, env.seed);
    let mix = QueryMix::scam(plan.probes_per_day, WINDOW, env.seed ^ MIX_SALT);
    let first: Vec<DayBatch> = (1..=WINDOW).map(|d| gen.day_batch(Day(d))).collect();
    let mut stream = Stream::new();
    for b in &first {
        stream.insert(b);
    }
    let obs = Obs::noop();
    let mut rec = Recorder::default();
    let cells = repeat_setup(
        &mut rec,
        plan.setup_reps,
        || {
            let mut cells = Vec::new();
            for (i, spec) in specs.iter().enumerate() {
                let mut cell =
                    Cell::start(*spec, &obs, &first, env.store_dir(i), tracer.traced_run())?;
                if plan.commit_in_setup {
                    cell.first_commit()?;
                }
                cells.push(cell);
            }
            Ok(cells)
        },
        |cells, rec| cells.into_iter().for_each(|c| c.finish(rec)),
    );
    let Some(mut cells) = cells else {
        return outcome(rec, &obs, &Counts::default());
    };
    for cell in &mut cells {
        cell.vol.reset_peak();
    }
    let start = Counts::of(&obs);
    let mut last = Day(WINDOW);
    for round in 1..=plan.rounds {
        let before = rec.phase_start();
        tracer.phase(round as u64);
        let day = Day(WINDOW + round);
        last = day;
        let batch = gen.day_batch(day);
        stream.insert(&batch);
        let probes = mix.load_for(day).probes;
        if tracer.enabled() {
            replay_build(&batch, specs[0].index_config(), &mut rec, tracer);
        }
        for (i, cell) in cells.iter_mut().enumerate() {
            cell.transition(batch.clone(), &mut rec, tracer, round > WINDOW);
            let phase = round + i as u32;
            let commit = phase.is_multiple_of(plan.commit_every);
            let mut answers = DayAnswers::default();
            for (value, range) in &probes {
                if let Some(got) = cell.probe(value, *range, &stream, &mut rec, tracer, commit) {
                    answers.probes.push((value.clone(), *range, got));
                }
            }
            cell.batch(
                &batch_values(&gen, env.seed, day, i),
                &stream,
                &mut rec,
                tracer,
            );
            cell.scan_newest(&stream, &mut rec, tracer);
            if commit {
                let recover = (phase / plan.commit_every).is_multiple_of(2);
                cell.commit_and_recover(&answers, &mut rec, tracer, recover);
            }
        }
        stream.prune(day);
        rec.book_phase(tracer.enabled(), before);
    }
    tracer.phase(1);
    let mut out = outcome(rec, &obs, &start);
    for cell in cells {
        let (wave, peak) = cell.blocks();
        out.wave_blocks += wave;
        out.peak_blocks += peak;
        out.cache_blocks += cell.spec.cache_blocks as u64;
        out.free_fragments += cell.vol.free_fragments() as u64;
        out.live_user_bytes += stream.window_bytes(last);
        out.transitions += cell.transitions;
        out.rec.put_ms.extend(&cell.store.put_ms);
        out.cells.push(cell.name.clone());
        cell.finish(&mut out.rec);
    }
    out
}

/// `daily`: all 6 schemes × 3 techniques at n = max(4, min_fan),
/// 200 articles/day, ingest off, no cache. Each cell commits every 18th
/// day (one cell a day, staggered) and recovers every 2nd commit.
pub fn daily(env: &Env) -> Outcome {
    let specs: Vec<CellSpec> = SchemeKind::ALL
        .iter()
        .flat_map(|&kind| {
            TECHS.iter().map(move |&tech| CellSpec {
                kind,
                tech,
                fan: kind.min_fan().max(4),
                ingest: false,
                cache_blocks: 0,
            })
        })
        .collect();
    // W days to reach steady state, then W more, one full turn of the
    // window, for the steady-state rows. (Over a few days RATA* and
    // WATA* can do identical work.)
    let plan = Plan {
        articles: 200,
        probes_per_day: 50,
        rounds: env.rounds(2 * WINDOW).max(2 * WINDOW),
        setup_reps: 3,
        commit_in_setup: false,
        commit_every: 18,
    };
    let mut out = run_cells(env, &specs, &plan);
    check_scheme_rows(&mut out.rec);
    out
}

/// The six `schemes.<S>.day_sim_s` rows of each technique must come
/// from steady-state days and be pairwise distinct: a row that repeats
/// another measured something other than the scheme it names.
fn check_scheme_rows(rec: &mut Recorder) {
    for tech in TECHS {
        rec.attempted += 1;
        let rows: Vec<Option<f64>> = SchemeKind::ALL
            .iter()
            .map(|&k| {
                rec.per_cell_sim
                    .get(&(scheme_key(k), tech_key(tech)))
                    .filter(|s| !s.is_empty())
                    .map(|s| s.mean())
            })
            .collect();
        let distinct = rows.iter().enumerate().all(|(i, a)| {
            rows.iter()
                .skip(i + 1)
                .all(|b| matches!((a, b), (Some(a), Some(b)) if a.to_bits() != b.to_bits()))
        });
        if rows.iter().any(Option::is_none) || !distinct {
            rec.fail(format!(
                "scheme rows for {} are not six distinct steady-state measurements: {rows:?}",
                tech_key(tech)
            ));
        }
    }
}

/// `ingest-commit`: DEL and WATA* at n = 4, in place, buffered ingest,
/// a cache that holds the whole wave. Each cell commits to its
/// `FileStore` every day and recovers from a re-opened store every
/// other day (the two cells alternate).
pub fn ingest_commit(env: &Env) -> Outcome {
    let specs: Vec<CellSpec> = [SchemeKind::Del, SchemeKind::WataStar]
        .into_iter()
        .map(|kind| CellSpec {
            kind,
            tech: UpdateTechnique::InPlace,
            fan: 4,
            ingest: true,
            cache_blocks: 4096,
        })
        .collect();
    let plan = Plan {
        articles: 200,
        probes_per_day: 50,
        rounds: env.rounds(100),
        setup_reps: 5,
        commit_in_setup: true,
        commit_every: 1,
    };
    run_cells(env, &specs, &plan)
}

/// One operation of the `serve` client.
enum ServeOp {
    Probe(SearchValue, TimeRange),
    Batch(Vec<SearchValue>),
    Scan,
}

/// The `serve` op list: 88 % probes (30 % of them over a random
/// sub-range), 10 % batches of 32 values, 2 % scans, shuffled.
fn serve_ops(gen: &ArticleGenerator, seed: u64, total: usize) -> Vec<ServeOp> {
    let mut rng = SplitMix64::new(seed ^ OPS_SALT);
    let batches = total / 10;
    let scans = total / 50;
    let mut ops: Vec<ServeOp> = (0..total - batches - scans)
        .map(|_| {
            let value = gen.query_word(&mut rng);
            let range = if rng.gen_bool(0.3) {
                let lo = rng.range_u32(1, WINDOW);
                let hi = rng.range_u32(lo, WINDOW);
                TimeRange::between(Day(lo), Day(hi))
            } else {
                TimeRange::all()
            };
            ServeOp::Probe(value, range)
        })
        .collect();
    ops.extend((0..batches).map(|_| {
        ServeOp::Batch(
            (0..BATCH_VALUES)
                .map(|_| gen.query_word(&mut rng))
                .collect(),
        )
    }));
    ops.extend((0..scans).map(|_| ServeOp::Scan));
    rng.shuffle(&mut ops);
    ops
}

/// Slots of the `serve` wave: 6 × 5 days.
const SERVE_SLOTS: u32 = 6;
const SERVE_CACHE_PER_ARM: usize = 128;
const SERVE_ARTICLES: usize = 200;
const SERVE_ARMS: usize = 2;
/// Requests sent back to back before their answers are checked.
const SERVE_CHUNK: usize = 64;
/// Leading requests (whole chunks) run and checked but not timed,
/// so caches are warm and lazy set-up is done when timing starts.
const SERVE_WARMUP: usize = 8 * SERVE_CHUNK;

struct ServeSetup {
    primary: Cell,
    twin: WaveIndex,
    twin_vol: Volume,
    server: WaveServer,
}

/// `serve`: a `WaveServer` on 2 arms (128 cached blocks each) holding
/// 6 slots × 5 days at 200 articles/day (≈ 2.3× the cache), driven by
/// one closed-loop client, every answer compared with a single-volume
/// packed twin.
/// Its primary — DEL in place on one volume with the same cache — then
/// keeps the wave for 200 days: a commit every 2nd day, a recovery
/// every 4th commit.
///
/// `probe_wall_us` times each probe on the twin: the server's own probe
/// latency is mostly two thread hand-offs, whose cost on a shared VM
/// swings by half from one minute to the next, so it is the per-layer
/// `server.probe_wall_us_p50` (with `server.fanout_overhead_us_p50`)
/// rather than a bounded metric. Batches and scans are timed on the
/// server.
pub fn serve(env: &Env) -> Outcome {
    let tracer = env.tracer;
    let mut gen = ArticleGenerator::new(VOCAB, SERVE_ARTICLES, WORDS, env.seed);
    let first: Vec<DayBatch> = (1..=WINDOW).map(|d| gen.day_batch(Day(d))).collect();
    let mut stream = Stream::new();
    for b in &first {
        stream.insert(b);
    }
    let days_per_slot = WINDOW / SERVE_SLOTS;
    let slot_batches: Vec<Vec<DayBatch>> = (0..SERVE_SLOTS)
        .map(|j| first[(j * days_per_slot) as usize..((j + 1) * days_per_slot) as usize].to_vec())
        .collect();
    let ops = serve_ops(
        &gen,
        env.seed,
        SERVE_WARMUP + (12_000.0 * env.scale).ceil() as usize,
    );
    let obs = Obs::noop();
    let spec = CellSpec {
        kind: SchemeKind::Del,
        tech: UpdateTechnique::InPlace,
        fan: SERVE_SLOTS as usize,
        ingest: false,
        cache_blocks: SERVE_CACHE_PER_ARM * SERVE_ARMS,
    };
    let mut rec = Recorder::default();
    let setup = repeat_setup(
        &mut rec,
        5,
        || {
            let primary = Cell::start(spec, &obs, &first, env.store_dir(0), tracer.traced_run())?;
            let mut twin_vol = Volume::new(DiskConfig::default().with_cache(spec.cache_blocks));
            let mut twin = WaveIndex::with_slots(SERVE_SLOTS as usize);
            for (j, batches) in slot_batches.iter().enumerate() {
                let refs: Vec<&DayBatch> = batches.iter().collect();
                let idx = ConstituentIndex::build_packed(
                    format!("slot{j}"),
                    IndexConfig::default(),
                    &mut twin_vol,
                    &refs,
                )?;
                twin.install(j, idx);
            }
            let cfg = ServerConfig {
                strategy: PlacementStrategy::RoundRobin,
                ..Default::default()
            };
            let array = DiskArray::new(
                DiskConfig::default().with_cache(SERVE_CACHE_PER_ARM),
                SERVE_ARMS,
            );
            let server = WaveServer::launch(array, cfg, obs.clone())?;
            server.install_wave(slot_batches.clone())?;
            Ok(ServeSetup {
                primary,
                twin,
                twin_vol,
                server,
            })
        },
        teardown_serve,
    );
    let Some(mut s) = setup else {
        return outcome(rec, &obs, &Counts::default());
    };
    let newest_slot = TimeRange::between(Day(WINDOW - days_per_slot + 1), Day(WINDOW));
    let window = (Day(1), Day(WINDOW));
    let counters = ServeCounters {
        seeks: obs.counter("disk.seeks"),
        blocks_read: obs.counter("disk.blocks_read"),
    };
    let mut start = Counts::of(&obs);
    for (i, chunk) in ops.chunks(SERVE_CHUNK).enumerate() {
        if i * SERVE_CHUNK == SERVE_WARMUP {
            start = Counts::of(&obs);
        }
        let before = rec.phase_start();
        tracer.phase(i as u64);
        // Requests go out back to back, each after the previous answer:
        // a closed loop without think time. Checking waits for the
        // chunk's end, so it never sits between two requests.
        let answers: Vec<ServeAnswer> = chunk
            .iter()
            .map(|op| serve_op(&s.server, op, newest_slot, &counters, tracer))
            .collect();
        let timed = i * SERVE_CHUNK >= SERVE_WARMUP;
        let mut scratch = Recorder::default();
        let r = if timed { &mut rec } else { &mut scratch };
        for (op, answer) in chunk.iter().zip(answers) {
            check_serve_op(&mut s, op, answer, newest_slot, window, &stream, r, tracer);
        }
        if !timed {
            rec.attempted += scratch.attempted;
            rec.failed += scratch.failed;
            rec.failures.extend(scratch.failures);
        }
        rec.book_phase(tracer.enabled(), before);
    }
    let read_counts = Counts::of(&obs).since(&start);

    // The primary keeps the wave.
    let rounds = env.rounds(200);
    let mix = QueryMix::scam(5, WINDOW, env.seed ^ MIX_SALT);
    s.primary.vol.reset_peak();
    let mut last = Day(WINDOW);
    for round in 1..=rounds {
        let before = rec.phase_start();
        tracer.phase(round as u64);
        let day = Day(WINDOW + round);
        last = day;
        let batch = gen.day_batch(day);
        stream.insert(&batch);
        if tracer.enabled() && round.is_multiple_of(5) {
            replay_build(&batch, spec.index_config(), &mut rec, tracer);
        }
        s.primary
            .transition(batch, &mut rec, tracer, round > WINDOW);
        if round.is_multiple_of(2) {
            let recover = round.is_multiple_of(8);
            let mut answers = DayAnswers::default();
            if recover {
                for (value, range) in mix.load_for(day).probes {
                    if let Some(got) = s.primary.answer(&value, range, &stream, &mut rec) {
                        answers.probes.push((value, range, got));
                    }
                }
            }
            s.primary
                .commit_and_recover(&answers, &mut rec, tracer, recover);
        }
        stream.prune(day);
        rec.book_phase(tracer.enabled(), before);
    }
    tracer.phase(1);

    let mut out = outcome(rec, &obs, &start);
    out.read_counts = read_counts;
    out.transitions = s.primary.transitions;
    out.peak_blocks = s.primary.blocks().1;
    out.live_user_bytes = stream.window_bytes(last);
    out.free_fragments = s.primary.vol.free_fragments() as u64;
    out.cells.push(s.primary.name.clone());
    out.rec.put_ms.extend(&s.primary.store.put_ms);
    match s.server.status() {
        Ok(arms) => {
            let busy: Vec<f64> = arms.iter().map(|a| a.busy_seconds).collect();
            let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
            out.arm_imbalance = crate::stats::ratio(busy.iter().cloned().fold(0.0, f64::max), mean);
            let server_blocks: u64 = arms.iter().map(|a| a.live_blocks).sum();
            let server_entries: u64 = arms.iter().map(|a| a.entries).sum();
            // The server's wave is what `serve` measures against its cache.
            out.wave_blocks = server_blocks;
            out.cache_blocks = (SERVE_CACHE_PER_ARM * SERVE_ARMS) as u64;
            out.peak_blocks += server_blocks;
            out.live_user_bytes += server_entries * wave_index::ENTRY_BYTES as u64;
        }
        Err(e) => out.rec.fail(format!("server status: {e}")),
    }
    teardown_serve(s, &mut out.rec);
    out
}

struct ServeCounters {
    seeks: Counter,
    blocks_read: Counter,
}

/// A server answer with its wall time (µs) and, for probes, the disk
/// seeks and blocks it cost.
struct ServeAnswer {
    wall_us: f64,
    seeks: u64,
    blocks_read: u64,
    result: IndexResult<ServeResult>,
}

enum ServeResult {
    Query(ServerQuery),
    Batch(ServerBatchQuery),
}

/// Sends one request and waits for its answer.
fn serve_op(
    server: &WaveServer,
    op: &ServeOp,
    newest_slot: TimeRange,
    c: &ServeCounters,
    tracer: &Tracer,
) -> ServeAnswer {
    let (s0, b0) = (c.seeks.get(), c.blocks_read.get());
    let t = Instant::now();
    let result = match op {
        ServeOp::Probe(value, range) => {
            let _s = tracer.span("server.probe");
            server.probe(value, *range).map(ServeResult::Query)
        }
        ServeOp::Batch(values) => {
            let _s = tracer.span("server.query_batch");
            server
                .query_batch(values, TimeRange::all())
                .map(ServeResult::Batch)
        }
        ServeOp::Scan => {
            let _s = tracer.span("server.scan");
            server.scan(newest_slot).map(ServeResult::Query)
        }
    };
    ServeAnswer {
        wall_us: t.elapsed().as_secs_f64() * 1e6,
        seeks: c.seeks.get() - s0,
        blocks_read: c.blocks_read.get() - b0,
        result,
    }
}

/// Records a server answer and checks it against the twin, and the
/// twin's against the oracle.
#[allow(clippy::too_many_arguments)]
fn check_serve_op(
    s: &mut ServeSetup,
    op: &ServeOp,
    answer: ServeAnswer,
    newest_slot: TimeRange,
    window: (Day, Day),
    stream: &Stream,
    rec: &mut Recorder,
    tracer: &Tracer,
) {
    rec.attempted += 1;
    let wall = answer.wall_us;
    match (op, answer.result) {
        (_, Err(e)) => rec.fail(format!("server request: {e}")),
        (ServeOp::Probe(value, range), Ok(ServeResult::Query(q))) => {
            rec.server_probe_wall_us.push(wall);
            rec.probe_sim_ms.push(q.elapsed_seconds * 1e3);
            rec.probe_seeks += answer.seeks;
            rec.probe_blocks_read += answer.blocks_read;
            rec.indexes_accessed += q.indexes_accessed as u64;
            rec.serial_s += q.serial_seconds;
            rec.elapsed_s += q.elapsed_seconds;
            let t = Instant::now();
            let twin = probe_slots(&s.twin, &mut s.twin_vol, value, *range, tracer);
            let twin_wall = t.elapsed().as_secs_f64() * 1e6;
            match twin {
                Ok(twin) => {
                    rec.probe_wall_us.push(twin_wall);
                    rec.fanout_overhead_us.push(wall - twin_wall);
                    if q.partial.is_some() || q.entries != twin.entries {
                        rec.fail(format!(
                            "server probe {value} {range:?} differs from the twin"
                        ));
                    }
                    if tracer.enabled() {
                        replay_lookups(&s.twin, value, *range, q.entries.len(), rec, tracer);
                    }
                    if !stream.probe_agrees(value, *range, window, twin.entries) {
                        rec.fail(format!("twin probe {value} disagrees with the oracle"));
                    }
                }
                Err(e) => rec.fail(format!("twin probe: {e}")),
            }
        }
        (ServeOp::Batch(values), Ok(ServeResult::Batch(q))) => {
            rec.batch_wall_us.push(wall);
            rec.serial_s += q.serial_seconds;
            rec.elapsed_s += q.elapsed_seconds;
            let t = Instant::now();
            let twin = {
                let _s = tracer.span("wave.query_batch");
                if tracer.enabled() {
                    batch_phases(&s.twin, &mut s.twin_vol, values, TimeRange::all(), tracer)
                } else {
                    s.twin
                        .query_batch(&mut s.twin_vol, values, TimeRange::all())
                        .map(|r| r.into_iter().map(|q| q.entries).collect())
                }
            };
            let twin_wall = t.elapsed().as_secs_f64() * 1e6;
            match twin {
                Ok(twin) => {
                    rec.twin_batch_wall_us.push(twin_wall);
                    rec.batch_overhead_us.push(wall - twin_wall);
                    if q.partial.is_some() || q.per_value != twin {
                        rec.fail("server batch differs from the twin".into());
                    }
                    for (value, entries) in values.iter().zip(twin) {
                        if !stream.probe_agrees(value, TimeRange::all(), window, entries) {
                            rec.fail(format!(
                                "twin batch value {value} disagrees with the oracle"
                            ));
                        }
                    }
                }
                Err(e) => rec.fail(format!("twin batch: {e}")),
            }
        }
        (ServeOp::Scan, Ok(ServeResult::Query(q))) => {
            rec.scan_wall_us.push(wall);
            rec.serial_s += q.serial_seconds;
            rec.elapsed_s += q.elapsed_seconds;
            match s.twin.timed_segment_scan(&mut s.twin_vol, newest_slot) {
                Ok(twin) if q.partial.is_none() && twin.entries == q.entries => {
                    if !stream.scan_agrees(newest_slot, window, twin.entries) {
                        rec.fail("twin scan disagrees with the oracle".into());
                    }
                }
                Ok(_) => rec.fail("server scan differs from the twin".into()),
                Err(e) => rec.fail(format!("twin scan: {e}")),
            }
        }
        _ => rec.fail("server answered with the wrong kind of result".into()),
    }
}

fn teardown_serve(s: ServeSetup, rec: &mut Recorder) {
    let ServeSetup {
        primary,
        mut twin,
        mut twin_vol,
        server,
    } = s;
    rec.attempted += 1;
    if let Err(e) = server.shutdown() {
        rec.fail(format!("server shutdown: {e}"));
    }
    if twin.release_all(&mut twin_vol).is_err() || twin_vol.live_blocks() != 0 {
        rec.fail("twin leaked blocks".into());
    }
    primary.finish(rec);
}

/// Block size, for the amplification ratios.
pub const BLOCK_BYTES: u64 = BLOCK_SIZE as u64;

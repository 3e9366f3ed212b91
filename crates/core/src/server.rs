//! A parallel multi-disk query/maintenance engine (paper Section 8).
//!
//! The paper closes with the observation that wave indices exploit
//! disk arrays naturally: queries decompose per constituent, so with
//! constituents spread over `k` disks the elapsed time of a
//! `TimedIndexProbe`/`TimedSegmentScan` is the **maximum over disks**
//! of the per-disk work — and "building new constituent indices on
//! separate disks avoids contention" with the query path.
//! [`crate::parallel`] models that analytically; [`WaveServer`]
//! executes it.
//!
//! # Architecture
//!
//! A server owns a fixed thread pool with **one worker per arm** of a
//! [`DiskArray`]. Each worker exclusively owns its arm's
//! [`Volume`] and the [`ConstituentIndex`]es
//! placed there — shared-nothing, so workers never contend on storage.
//! A slot→arm routing table (an [`ArmMap`] realisation, round-robin
//! or greedy by constituent weight) decides placement.
//!
//! Queries fan out over the arms that own intersecting slots, run
//! concurrently, and merge in ascending slot order — so a
//! [`WaveServer`] returns **exactly** the entries a single-threaded
//! [`WaveIndex`](crate::wave::WaveIndex) would, in the same order,
//! while reporting elapsed time as the busiest arm's share.
//!
//! # Maintenance
//!
//! [`WaveServer::maintain`] is shadow updating scaled to the array:
//! the replacement constituent is built on a **dedicated maintenance
//! arm** that serves no queries, entirely off the query path. The
//! swap then mirrors the two-phase epoch commit of [`crate::persist`]:
//! phase one builds the full replacement under the next epoch's label
//! (`slot{j}.e{epoch}`, the naming [`crate::persist::commit_wave`]
//! gives the files it writes to an
//! [`IndexStore`](wave_storage::IndexStore); a commit there rewrites
//! only changed slots, so its files may carry older epochs); phase two
//! atomically flips the routing table — the only moment queries are
//! excluded, and it is O(1) — after which the displaced constituent is
//! garbage-collected and the arm it lived on becomes the new
//! maintenance arm. With one slot per query arm (the paper's "n
//! matches the number of disks" setup, plus one spare) maintenance
//! never touches an arm a query can reach; with more slots than arms
//! the rotation degrades gracefully to sharing the least-loaded arm.
//!
//! # Fault tolerance
//!
//! Serving survives three fault classes, each with a bounded, typed
//! recovery path (tuned by [`FaultConfig`]):
//!
//! * **Worker death** — every request is supervised: a worker whose
//!   channel closed is restarted against the *same* shared arm state
//!   (volume + constituents, behind an `Arc<Mutex<_>>`), and requests
//!   that died unprocessed are re-issued. Restarts mint root-spanned
//!   traces and bump `server.worker_restarts`.
//! * **Transient read errors** — arm workers retry probe/scan/batch
//!   reads under a bounded [`RetryPolicy`], counting
//!   `server.read_retries`; blips shorter than the retry budget are
//!   invisible to callers.
//! * **Persistent arm failure** — a per-arm circuit breaker trips
//!   after consecutive failures and quarantines the arm; queries then
//!   answer from the surviving arms with an explicit
//!   [`PartialAnswer`] naming the missing slots — byte-identical on
//!   covered slots, never silently wrong. After a cooldown, one
//!   half-open probe decides re-admission.
//!
//! The deterministic chaos harness (`wavectl chaos`) races all three
//! fault classes against concurrent queries and maintenance epochs
//! and checks every completed answer against a single-threaded
//! oracle.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, SendError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;

use wave_obs::{fields, Counter, Gauge, Obs, TraceCtx};
use wave_storage::{DiskArray, IoScheduler, RetryPolicy, StatsDelta, Volume};

use crate::entry::Entry;
use crate::error::{IndexError, IndexResult};
use crate::filter::MembershipFilter;
use crate::index::{ConstituentIndex, IndexConfig};
use crate::parallel::{ArmMap, PlacementStrategy};
use crate::query::TimeRange;
use crate::record::{Day, DayBatch, SearchValue};
use crate::wave::{append_per_value, read_slots, read_slots_batched};

/// Server construction options.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// Constituent-index tuning used for every build.
    pub index: IndexConfig,
    /// How slots are spread over the query arms.
    pub strategy: PlacementStrategy,
    /// Reserve the last arm for maintenance builds (required by
    /// [`WaveServer::maintain`]); query slots then spread over the
    /// remaining arms. Needs an array of at least two arms.
    pub reserve_maintenance_arm: bool,
    /// Fault-tolerance tuning (supervision, retry, circuit breaking).
    pub fault: FaultConfig,
}

/// Fault-tolerance tuning for a [`WaveServer`].
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Retry policy the arm workers apply to transient read errors on
    /// the probe/scan/batch serving paths. The default never sleeps
    /// (backoff would only slow the simulation down); production-shaped
    /// deployments can swap in a jittered policy.
    pub retry: RetryPolicy,
    /// Worker restarts a single request tolerates (at dispatch or
    /// after losing its reply) before reporting
    /// [`IndexError::WorkerLost`].
    pub restart_attempts: u32,
    /// Consecutive failed queries on an arm that trip its breaker.
    pub trip_after: u32,
    /// Queries a tripped arm sits out before one half-open probe is
    /// admitted (success heals the arm, failure re-trips it).
    pub cooldown: u32,
    /// Serve partial answers with explicit [`PartialAnswer`] gaps
    /// instead of failing the whole query when an arm is quarantined
    /// or erroring. When `false` the breaker never skips an arm and
    /// every arm failure surfaces as the query's error.
    pub degraded_reads: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            retry: RetryPolicy::no_backoff(4),
            restart_attempts: 2,
            trip_after: 3,
            cooldown: 4,
            degraded_reads: true,
        }
    }
}

/// Explicit coverage gaps of a degraded answer: the slots no arm
/// could serve. Entries for every covered slot are byte-identical to
/// a healthy answer's — a degraded read is never silently wrong, the
/// gap is always caller-visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialAnswer {
    /// Slots absent from the answer, ascending.
    pub missing_slots: Vec<usize>,
}

/// The merged outcome of one fanned-out query.
#[derive(Debug)]
pub struct ServerQuery {
    /// Matching entries, in ascending slot order — byte-identical to
    /// a single-threaded [`crate::wave::WaveIndex`] query.
    pub entries: Vec<Entry>,
    /// Constituent indexes accessed across all arms.
    pub indexes_accessed: usize,
    /// Elapsed simulated seconds: the busiest arm's share (the
    /// paper's max-over-disks measure).
    pub elapsed_seconds: f64,
    /// Total device busy time summed over arms (what one disk would
    /// have taken).
    pub serial_seconds: f64,
    /// Per-arm busy seconds for this query, indexed by arm.
    pub per_arm_seconds: Vec<f64>,
    /// `Some` when degraded reads answered without one or more arms:
    /// the listed slots are missing, everything else is exact.
    pub partial: Option<PartialAnswer>,
}

impl ServerQuery {
    /// Serial-over-parallel speedup of this query (1.0 when no arm
    /// did any work).
    pub fn speedup(&self) -> f64 {
        if self.elapsed_seconds > 0.0 {
            self.serial_seconds / self.elapsed_seconds
        } else {
            1.0
        }
    }
}

/// The merged outcome of one batched fan-out
/// ([`WaveServer::query_batch`]).
#[derive(Debug)]
pub struct ServerBatchQuery {
    /// Matching entries per queried value (indexed like the submitted
    /// value list), each in ascending slot order — byte-identical to
    /// calling [`WaveServer::probe`] per value.
    pub per_value: Vec<Vec<Entry>>,
    /// Constituent indexes intersecting the range (every value in the
    /// batch touches the same constituents, so one count serves all).
    pub indexes_accessed: usize,
    /// Elapsed simulated seconds: the busiest arm's share.
    pub elapsed_seconds: f64,
    /// Total device busy time summed over arms.
    pub serial_seconds: f64,
    /// Per-arm busy seconds for this batch, indexed by arm.
    pub per_arm_seconds: Vec<f64>,
    /// `Some` when degraded reads answered without one or more arms:
    /// the listed slots are missing from every value's answer,
    /// everything else is exact.
    pub partial: Option<PartialAnswer>,
}

/// What one [`WaveServer::maintain`] call did.
#[derive(Debug)]
pub struct MaintainReport {
    /// Epoch committed by the swap.
    pub epoch: u64,
    /// Arm the replacement was built on (the old maintenance arm).
    pub built_on: usize,
    /// Arm the displaced constituent was released from; it is the new
    /// maintenance arm.
    pub released_from: usize,
    /// Simulated seconds the build charged to the maintenance arm.
    pub build_seconds: f64,
}

/// Per-arm snapshot returned by [`WaveServer::status`].
#[derive(Debug)]
pub struct ArmStatus {
    /// Arm index.
    pub arm: usize,
    /// Slots this arm currently owns, ascending.
    pub slots: Vec<usize>,
    /// Live entries across those slots.
    pub entries: u64,
    /// Blocks allocated on the arm.
    pub live_blocks: u64,
    /// Cumulative simulated busy seconds of the arm.
    pub busy_seconds: f64,
}

/// Simulated seconds to whole microseconds (the unit SLO windows and
/// the flight recorder's promotion threshold use).
fn sim_micros(seconds: f64) -> u64 {
    (seconds * 1e6).round().max(0.0) as u64
}

/// Circuit-breaker states of one arm's serving health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Serving normally.
    Healthy,
    /// Quarantined: queries skip the arm (its slots go missing in
    /// degraded answers) while the cooldown runs down.
    Tripped,
    /// Cooldown expired: the next query is admitted as a probe —
    /// success heals the arm, failure re-trips it.
    HalfOpen,
}

/// Per-arm circuit breaker: `trip_after` consecutive failures
/// quarantine the arm, `cooldown` skipped queries later one half-open
/// probe decides whether it rejoins. State only; the counters that
/// make trips operator-visible live on the server.
#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    trip_after: u32,
    cooldown: u32,
    consecutive_errors: u32,
    cooldown_left: u32,
}

impl Breaker {
    fn new(trip_after: u32, cooldown: u32) -> Self {
        Breaker {
            state: BreakerState::Healthy,
            trip_after: trip_after.max(1),
            cooldown: cooldown.max(1),
            consecutive_errors: 0,
            cooldown_left: 0,
        }
    }

    /// Whether a query may use the arm; counts down the cooldown of a
    /// tripped arm and admits the half-open probe when it expires.
    fn admit(&mut self) -> bool {
        match self.state {
            BreakerState::Healthy | BreakerState::HalfOpen => true,
            BreakerState::Tripped => {
                self.cooldown_left = self.cooldown_left.saturating_sub(1);
                if self.cooldown_left == 0 {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn record_success(&mut self) {
        self.state = BreakerState::Healthy;
        self.consecutive_errors = 0;
    }

    /// Returns `true` when this error tripped the breaker.
    fn record_error(&mut self) -> bool {
        match self.state {
            BreakerState::HalfOpen => {
                self.trip();
                true
            }
            BreakerState::Tripped => false,
            BreakerState::Healthy => {
                self.consecutive_errors += 1;
                if self.consecutive_errors >= self.trip_after {
                    self.trip();
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Quarantines the arm immediately (also the operator/chaos hook
    /// behind [`WaveServer::quarantine_arm`]).
    fn trip(&mut self) {
        self.state = BreakerState::Tripped;
        self.cooldown_left = self.cooldown;
        self.consecutive_errors = 0;
    }
}

/// The read an arm performs for a query request.
#[derive(Clone)]
enum ArmQuery {
    /// `TimedIndexProbe` of one value: one `probe_in` per constituent.
    Probe(SearchValue),
    /// `TimedSegmentScan`.
    Scan,
    /// A batch of probes answered with one scheduled sweep per arm.
    Batch(Vec<SearchValue>),
}

impl ArmQuery {
    /// The values a probe or batch looks for. `None` for a scan, which
    /// wants every entry — so a scan can never prove an arm empty.
    fn values(&self) -> Option<&[SearchValue]> {
        match self {
            ArmQuery::Probe(value) => Some(std::slice::from_ref(value)),
            ArmQuery::Scan => None,
            ArmQuery::Batch(values) => Some(values),
        }
    }

    /// Name of the per-arm child span serving this read.
    fn span_name(&self) -> &'static str {
        match self {
            ArmQuery::Probe(_) => "arm.probe",
            ArmQuery::Scan => "arm.scan",
            ArmQuery::Batch(_) => "arm.batch",
        }
    }
}

/// What an arm sends back for a query request: for each intersecting
/// slot, one entry list per queried value (indexed like the batch's
/// values; a probe or scan has exactly one).
struct ArmAnswer {
    arm: usize,
    per_slot: Vec<(usize, Vec<Vec<Entry>>)>,
    io: StatsDelta,
}

/// What an arm sends back for a build request: besides the I/O
/// accounting, the built constituent's day span and a copy of its
/// membership filter, which the server installs as the slot's routing
/// metadata ([`SlotMeta`]) for fan-out pruning.
struct BuildDone {
    arm: usize,
    io: StatsDelta,
    span: Option<(Day, Day)>,
    filter: Option<MembershipFilter>,
}

enum ArmRequest {
    Query {
        query: ArmQuery,
        range: TimeRange,
        ctx: TraceCtx,
        reply: Sender<IndexResult<ArmAnswer>>,
    },
    Build {
        slot: usize,
        label: String,
        batches: Vec<DayBatch>,
        ctx: TraceCtx,
        reply: Sender<IndexResult<BuildDone>>,
    },
    Drop {
        slot: usize,
        reply: Sender<IndexResult<()>>,
    },
    Status {
        reply: Sender<ArmStatus>,
    },
    /// Chaos hook: the worker thread exits immediately without a
    /// reply, dropping any requests still queued behind this one —
    /// their reply senders drop, which is what supervising callers
    /// detect and recover from.
    Kill,
    Shutdown {
        reply: Sender<IndexResult<u64>>,
    },
}

/// Worker state: one arm and its constituents. Shared between the
/// server and whichever worker thread currently serves the arm (via
/// `Arc<Mutex<_>>`), so a replacement thread after a worker death
/// reattaches to the same volume and indexes — supervision loses no
/// state. The mutex is effectively uncontended: the worker holds it
/// per request; the server only takes it for chaos/fault hooks.
struct ArmState {
    arm: usize,
    cfg: IndexConfig,
    vol: Volume,
    slots: BTreeMap<usize, ConstituentIndex>,
    /// Bounded retry applied to transient read errors on the serving
    /// paths (probe/scan/batch), so an injected or environmental blip
    /// never surfaces when riding it out suffices.
    retry: RetryPolicy,
    /// `server.read_retries`: transient read errors retried away.
    retries: Counter,
}

impl ArmState {
    /// Runs one request body under a per-arm child span of the
    /// server-side root `ctx`, so every worker-side event carries the
    /// request's `trace_id` and a `parent_id` naming the fan-out span.
    /// The span's end fields report the arm's simulated busy time
    /// (`latency_us`) on success or the typed error on failure — the
    /// signals tail-based flight-recorder retention keys on.
    fn traced<T>(
        &mut self,
        ctx: TraceCtx,
        name: &str,
        f: impl FnOnce(&mut Self, TraceCtx) -> IndexResult<T>,
    ) -> IndexResult<T> {
        let obs = self.vol.obs().clone();
        let before = self.vol.stats();
        let mut span = obs.child_span(ctx, name, fields![("arm", self.arm as u64)]);
        let result = f(self, span.ctx());
        match &result {
            Ok(_) => {
                let busy = self.vol.stats().since(&before).sim_seconds;
                span.set_end_field("latency_us", sim_micros(busy));
            }
            Err(e) => {
                // The arm repeats as an end field so a `span_end`
                // line is self-contained: `wavectl report` attributes
                // failures per arm without re-joining span begins.
                span.set_end_field("arm", self.arm as u64);
                span.set_end_field("error", e.to_string());
            }
        }
        result
    }

    /// Answers one query over this arm's slots through the shared
    /// read loops of [`crate::wave`], retrying transient read errors.
    /// A probe or scan re-runs one constituent's read (reads are pure,
    /// so that is safe); a batch re-runs its one scheduled sweep.
    fn answer(
        &mut self,
        query: &ArmQuery,
        range: TimeRange,
        ctx: TraceCtx,
    ) -> IndexResult<ArmAnswer> {
        let ArmState {
            arm,
            vol,
            slots,
            retry,
            retries,
            ..
        } = self;
        let before = vol.stats();
        let slots = slots.iter().map(|(&slot, idx)| (slot, idx));
        let per_slot = match query {
            ArmQuery::Probe(value) => read_slots(slots, range, |idx| {
                retry
                    .run_where(retries, IndexError::is_transient, || {
                        idx.probe_in(&mut *vol, value, range)
                    })
                    .map(|entries| vec![entries])
            })?,
            ArmQuery::Scan => read_slots(slots, range, |idx| {
                retry
                    .run_where(retries, IndexError::is_transient, || {
                        idx.scan_in(&mut *vol, range)
                    })
                    .map(|entries| vec![entries])
            })?,
            ArmQuery::Batch(values) => {
                let mut per_slot = Vec::new();
                read_slots_batched(
                    vol,
                    slots,
                    values,
                    range,
                    |vol, requests| {
                        Ok(IoScheduler::read_batch_retry(
                            vol, requests, ctx, retry, retries,
                        )?)
                    },
                    |slot, answers| per_slot.push((slot, answers)),
                )?;
                per_slot
            }
        };
        Ok(ArmAnswer {
            arm: *arm,
            per_slot,
            io: vol.stats().since(&before),
        })
    }

    fn build(
        &mut self,
        slot: usize,
        label: String,
        batches: Vec<DayBatch>,
    ) -> IndexResult<BuildDone> {
        let before = self.vol.stats();
        let refs: Vec<&DayBatch> = batches.iter().collect();
        let idx = ConstituentIndex::build_packed(label, self.cfg, &mut self.vol, &refs)?;
        let span = idx.day_span();
        let filter = idx.membership_filter().cloned();
        if let Some(old) = self.slots.insert(slot, idx) {
            // Rebuilding a slot in place on the same arm: the old
            // generation is released once the new one is installed.
            old.release(&mut self.vol)?;
        }
        Ok(BuildDone {
            arm: self.arm,
            io: self.vol.stats().since(&before),
            span,
            filter,
        })
    }

    /// Processes one request; `false` means the worker loop must exit
    /// (kill or shutdown). A request's effects are applied atomically
    /// with respect to the state lock, and its reply is sent before
    /// `handle` returns — so a lost reply always means an
    /// *unprocessed* request, which supervising callers may therefore
    /// safely re-issue.
    fn handle(&mut self, req: ArmRequest) -> bool {
        match req {
            ArmRequest::Query {
                query,
                range,
                ctx,
                reply,
            } => {
                let result = self.traced(ctx, query.span_name(), |s, arm_ctx| {
                    s.answer(&query, range, arm_ctx)
                });
                let _ = reply.send(result);
                true
            }
            ArmRequest::Build {
                slot,
                label,
                batches,
                ctx,
                reply,
            } => {
                let result = self.traced(ctx, "arm.build", |s, _| s.build(slot, label, batches));
                let _ = reply.send(result);
                true
            }
            ArmRequest::Drop { slot, reply } => {
                let result = match self.slots.remove(&slot) {
                    Some(idx) => idx.release(&mut self.vol),
                    None => Ok(()),
                };
                let _ = reply.send(result);
                true
            }
            ArmRequest::Status { reply } => {
                let _ = reply.send(ArmStatus {
                    arm: self.arm,
                    slots: self.slots.keys().copied().collect(),
                    entries: self.slots.values().map(ConstituentIndex::entry_count).sum(),
                    live_blocks: self.vol.live_blocks(),
                    busy_seconds: self.vol.stats().sim_seconds,
                });
                true
            }
            ArmRequest::Kill => false,
            ArmRequest::Shutdown { reply } => {
                let mut result = Ok(());
                for (_, idx) in std::mem::take(&mut self.slots) {
                    if let Err(e) = idx.release(&mut self.vol) {
                        result = Err(e);
                    }
                }
                let _ = reply.send(result.map(|()| self.vol.live_blocks()));
                false
            }
        }
    }
}

/// A re-issuable build request factory: supervision may need to send
/// the same build more than once (the first copy can die queued
/// behind a killed worker), so each issue clones the day batches.
fn build_request(
    slot: usize,
    epoch: u64,
    batches: &[DayBatch],
    ctx: TraceCtx,
) -> impl Fn(Sender<IndexResult<BuildDone>>) -> ArmRequest + '_ {
    move |reply| ArmRequest::Build {
        slot,
        label: format!("slot{slot}.e{epoch}"),
        batches: batches.to_vec(),
        ctx,
        reply,
    }
}

/// The arm worker loop: drains requests against the shared
/// [`ArmState`]. The state lives behind an `Arc<Mutex<_>>` owned
/// jointly with the server so a replacement thread (after a kill)
/// reattaches to the same volume and constituents. A poisoned state
/// lock is recovered: each request's effects are applied atomically
/// under the lock, so the state a panicking predecessor left behind
/// is whole at request granularity.
fn worker_loop(core: &Mutex<ArmState>, rx: Receiver<ArmRequest>) {
    while let Ok(req) = rx.recv() {
        let keep_going = core
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .handle(req);
        if !keep_going {
            return;
        }
    }
}

/// The currently-running worker thread of an arm: its request channel
/// and join handle, plus a generation counter bumped on every restart
/// so racing supervisors can tell a disconnect they both observed
/// from one already healed by someone else.
struct WorkerLink {
    generation: u64,
    tx: Sender<ArmRequest>,
    handle: Option<JoinHandle<()>>,
}

/// Per-arm handles the server side keeps: the shared worker state,
/// the supervised worker slot, the arm's circuit breaker, and its
/// observability instruments.
struct ArmLink {
    arm: usize,
    /// Arm state shared with whichever worker thread currently serves
    /// it; survives worker deaths, so restarts lose nothing.
    core: Arc<Mutex<ArmState>>,
    worker: Mutex<WorkerLink>,
    breaker: Mutex<Breaker>,
    /// In-flight requests (server-side view), mirrored into `depth`.
    pending: AtomicI64,
    depth: Gauge,
    requests: Counter,
    seeks: Counter,
    blocks_read: Counter,
    blocks_written: Counter,
    /// Cumulative busy time in microseconds (counter-friendly unit).
    busy_us: Counter,
    /// Worker restarts on this arm.
    restarts: Counter,
}

impl ArmLink {
    /// Locks the worker slot. A poisoned lock is recovered: the slot
    /// is a channel, a handle and a counter, all safe to reuse, and
    /// refusing to serve would turn one panicked supervisor into a
    /// permanently dead arm.
    fn lock_worker(&self) -> MutexGuard<'_, WorkerLink> {
        self.worker.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_breaker(&self) -> MutexGuard<'_, Breaker> {
        self.breaker.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_core(&self) -> MutexGuard<'_, ArmState> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Books the I/O of one completed request and balances `pending`.
    fn settle(&self, io: &StatsDelta) {
        self.depth
            .set((self.pending.fetch_sub(1, Ordering::Relaxed) - 1) as f64);
        self.seeks.add(io.seeks);
        self.blocks_read.add(io.blocks_read);
        self.blocks_written.add(io.blocks_written);
        self.busy_us.add((io.sim_seconds * 1e6) as u64);
    }

    /// Balances `pending` for a request that produced no I/O report
    /// (its worker died, or dispatch ultimately failed). Every
    /// accepted request is settled exactly once, by this or by
    /// [`ArmLink::settle`], so the queue-depth gauge cannot drift
    /// under faults.
    fn settle_err(&self) {
        self.depth
            .set((self.pending.fetch_sub(1, Ordering::Relaxed) - 1) as f64);
    }
}

/// A request successfully handed to an arm worker: the reply channel
/// plus the worker generation that accepted it, so a disconnect can
/// tell whether that worker was already replaced.
struct InFlight<R> {
    generation: u64,
    rx: Receiver<R>,
}

/// Server-side summary of one routed slot, captured from the arm that
/// built its constituent: the day span plus a copy of the membership
/// filter. The fan-out consults it *before* dispatching, so an arm
/// none of whose slots can match a probe gets no request at all.
struct SlotMeta {
    span: Option<(Day, Day)>,
    filter: Option<MembershipFilter>,
}

/// Routing state guarded by one `RwLock`: readers hold it for the
/// duration of a query (so they see one consistent placement
/// generation); maintenance takes it exclusively only for the O(1)
/// flip, which also installs the new generation's [`SlotMeta`].
struct Route {
    arm_of: BTreeMap<usize, usize>,
    maintenance: Option<usize>,
    /// Pruning metadata per routed slot, updated atomically with
    /// `arm_of` under the same write lock. A slot without metadata is
    /// simply never elided — correctness does not depend on this map.
    slot_meta: BTreeMap<usize, SlotMeta>,
}

impl Route {
    /// The arms owning at least one routed slot, ascending: the arms a
    /// query fans out to.
    fn target_arms(&self) -> Vec<usize> {
        let mut arms: Vec<usize> = self.arm_of.values().copied().collect();
        arms.sort_unstable();
        arms.dedup();
        arms
    }
}

/// A parallel wave-index server over a shared-nothing disk array.
///
/// See the [module docs](self) for the architecture. All query
/// methods take `&self`, so a server wrapped in an
/// [`Arc`] serves any number of reader threads while
/// one maintenance thread commits epochs.
///
/// ```
/// use wave_index::server::{ServerConfig, WaveServer};
/// use wave_index::{Day, DayBatch, Record, RecordId, SearchValue, TimeRange};
/// use wave_storage::{DiskArray, DiskConfig};
///
/// let server = WaveServer::launch(
///     DiskArray::new(DiskConfig::default(), 2),
///     ServerConfig::default(),
///     wave_obs::Obs::noop(),
/// )
/// .unwrap();
/// let day = |d: u32| {
///     vec![DayBatch::new(
///         Day(d),
///         vec![Record::with_values(RecordId(d as u64), [SearchValue::from("war")])],
///     )]
/// };
/// server.install_wave(vec![day(1), day(2)]).unwrap();
/// let q = server.probe(&SearchValue::from("war"), TimeRange::all()).unwrap();
/// assert_eq!(q.entries.len(), 2);
/// assert_eq!(q.indexes_accessed, 2);
/// server.shutdown().unwrap();
/// ```
pub struct WaveServer {
    arms: Vec<ArmLink>,
    route: RwLock<Route>,
    epoch: AtomicU64,
    cfg: ServerConfig,
    obs: Obs,
    queries: Counter,
    /// `server.degraded_queries`: answers served with explicit gaps.
    degraded: Counter,
    /// `server.worker_restarts`: supervised worker replacements.
    worker_restarts: Counter,
    /// `server.breaker_trips`: arms quarantined by their breaker.
    breaker_trips: Counter,
}

impl WaveServer {
    /// Launches one worker thread per arm of `array`. The workers
    /// exit when the server is [shut down](WaveServer::shutdown) (or
    /// dropped).
    ///
    /// # Errors
    /// [`IndexError::BadConfig`] if `cfg.reserve_maintenance_arm` is
    /// set on a one-arm array; [`IndexError::WorkerLost`] if the OS
    /// refuses to spawn a worker thread (already-spawned workers are
    /// stopped by dropping their channels).
    pub fn launch(array: DiskArray, cfg: ServerConfig, obs: Obs) -> IndexResult<Self> {
        let arm_count = array.arm_count();
        if cfg.reserve_maintenance_arm && arm_count < 2 {
            return Err(IndexError::BadConfig {
                window: 0,
                fan: arm_count as u32,
                reason: "a maintenance arm needs an array of at least two arms",
            });
        }
        let mut arms = Vec::with_capacity(arm_count);
        for (i, mut vol) in array.into_arms().into_iter().enumerate() {
            // Workers report through the server's handle: their child
            // spans join the request traces and their disk/sched
            // metrics aggregate into the one registry operators read.
            vol.attach_obs(obs.clone());
            let core = Arc::new(Mutex::new(ArmState {
                arm: i,
                cfg: cfg.index,
                vol,
                slots: BTreeMap::new(),
                retry: cfg.fault.retry,
                retries: obs.counter("server.read_retries"),
            }));
            let (tx, rx) = channel();
            let thread_core = Arc::clone(&core);
            let handle = std::thread::Builder::new()
                .name(format!("wave-arm-{i}"))
                .spawn(move || worker_loop(&thread_core, rx))
                .map_err(|_| IndexError::WorkerLost {
                    what: "OS refused to spawn an arm worker",
                    arm: i,
                    epoch: 0,
                })?;
            arms.push(ArmLink {
                arm: i,
                core,
                worker: Mutex::new(WorkerLink {
                    generation: 0,
                    tx,
                    handle: Some(handle),
                }),
                breaker: Mutex::new(Breaker::new(cfg.fault.trip_after, cfg.fault.cooldown)),
                pending: AtomicI64::new(0),
                depth: obs.gauge(&format!("server.arm{i}.queue_depth")),
                requests: obs.counter(&format!("server.arm{i}.requests")),
                seeks: obs.counter(&format!("server.arm{i}.seeks")),
                blocks_read: obs.counter(&format!("server.arm{i}.blocks_read")),
                blocks_written: obs.counter(&format!("server.arm{i}.blocks_written")),
                busy_us: obs.counter(&format!("server.arm{i}.busy_us")),
                restarts: obs.counter(&format!("server.arm{i}.restarts")),
            });
        }
        Ok(WaveServer {
            arms,
            route: RwLock::new(Route {
                arm_of: BTreeMap::new(),
                maintenance: cfg
                    .reserve_maintenance_arm
                    .then_some(arm_count.saturating_sub(1)),
                slot_meta: BTreeMap::new(),
            }),
            epoch: AtomicU64::new(0),
            cfg,
            queries: obs.counter("server.queries"),
            degraded: obs.counter("server.degraded_queries"),
            worker_restarts: obs.counter("server.worker_restarts"),
            breaker_trips: obs.counter("server.breaker_trips"),
            obs,
        })
    }

    /// Takes the routing table read lock, surfacing poisoning (a
    /// maintenance thread panicked mid-flip) as a typed error rather
    /// than panicking on the serving path.
    fn route_read(&self) -> IndexResult<RwLockReadGuard<'_, Route>> {
        self.route
            .read()
            .map_err(|_| IndexError::LockPoisoned("server route table"))
    }

    fn route_write(&self) -> IndexResult<RwLockWriteGuard<'_, Route>> {
        self.route
            .write()
            .map_err(|_| IndexError::LockPoisoned("server route table"))
    }

    /// The [`ArmLink`] for `arm`, or a typed error when a routing
    /// entry points at an arm the array does not have (an invariant
    /// breach that must not become a slice panic mid-query).
    fn arm(&self, arm: usize) -> IndexResult<&ArmLink> {
        self.arms
            .get(arm)
            .ok_or_else(|| IndexError::Corrupt(format!("routed to unknown arm {arm}")))
    }

    /// Number of arms (including any maintenance arm).
    pub fn arm_count(&self) -> usize {
        self.arms.len()
    }

    /// Epoch of the current placement generation; bumped by every
    /// [`WaveServer::maintain`] swap.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Arm currently owning `slot`, if the slot is installed.
    ///
    /// Read-only introspection stays available even if a panicking
    /// thread poisoned the route lock: the table is a plain map whose
    /// entries are each flipped atomically, so a poisoned snapshot is
    /// still well-formed and more useful to an operator than a panic.
    pub fn arm_of(&self, slot: usize) -> Option<usize> {
        self.route
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .arm_of
            .get(&slot)
            .copied()
    }

    /// The dedicated maintenance arm, if one was reserved.
    pub fn maintenance_arm(&self) -> Option<usize> {
        self.route
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .maintenance
    }

    /// A typed [`IndexError::WorkerLost`] stamped with the arm and
    /// the epoch current when the loss was detected, so failure
    /// reports attribute losses to a placement generation.
    fn worker_lost(&self, what: &'static str, arm: usize) -> IndexError {
        IndexError::WorkerLost {
            what,
            arm,
            epoch: self.epoch(),
        }
    }

    /// Replaces a dead worker thread for `link`'s arm: reaps the old
    /// handle, spawns a fresh thread against the same shared
    /// [`ArmState`], and bumps the link's worker generation. Runs
    /// under the caller-held worker lock, so concurrent restarters
    /// serialise and [`WaveServer::ensure_restarted`] can tell a
    /// replacement already happened. Every restart mints a
    /// root-spanned trace and bumps `server.worker_restarts`.
    fn restart_worker(
        &self,
        link: &ArmLink,
        worker: &mut WorkerLink,
        why: &'static str,
    ) -> IndexResult<()> {
        let mut span = self.obs.root_span(
            "server.restart_worker",
            fields![("arm", link.arm as u64), ("why", why)],
        );
        // The dead worker's receiver is gone, so its loop has exited
        // (or is about to); reap it before spawning the replacement.
        if let Some(h) = worker.handle.take() {
            let _ = h.join();
        }
        let (tx, rx) = channel();
        let core = Arc::clone(&link.core);
        let spawned = std::thread::Builder::new()
            .name(format!("wave-arm-{}", link.arm))
            .spawn(move || worker_loop(&core, rx));
        match spawned {
            Ok(handle) => {
                worker.tx = tx;
                worker.handle = Some(handle);
                worker.generation += 1;
                self.worker_restarts.inc();
                link.restarts.inc();
                span.set_end_field("generation", worker.generation);
                Ok(())
            }
            Err(_) => {
                let e = self.worker_lost("OS refused to respawn an arm worker", link.arm);
                span.set_end_field("arm", link.arm as u64);
                span.set_end_field("error", e.to_string());
                Err(e)
            }
        }
    }

    /// Restarts `link`'s worker unless its generation already moved
    /// past `observed`: a collector that saw a disconnect calls this,
    /// and when several collectors race, the first one restarts while
    /// the rest no-op against the bumped generation (joining the live
    /// replacement from here would deadlock against its `recv` loop).
    fn ensure_restarted(
        &self,
        link: &ArmLink,
        observed: u64,
        why: &'static str,
    ) -> IndexResult<()> {
        let mut worker = link.lock_worker();
        if worker.generation != observed {
            return Ok(());
        }
        self.restart_worker(link, &mut worker, why)
    }

    /// Hands `req` to `link`'s worker, restarting the worker in place
    /// (up to the configured attempts) when its channel is closed —
    /// `SendError` returns the unsent request, so the resend loses
    /// nothing. On success returns the generation of the worker that
    /// accepted the request; the request is then in flight and the
    /// caller owes exactly one [`ArmLink::settle`] /
    /// [`ArmLink::settle_err`].
    fn send_to(&self, link: &ArmLink, req: ArmRequest) -> IndexResult<u64> {
        link.requests.inc();
        link.depth
            .set((link.pending.fetch_add(1, Ordering::Relaxed) + 1) as f64);
        let mut worker = link.lock_worker();
        let mut req = req;
        let mut restarts = 0u32;
        loop {
            match worker.tx.send(req) {
                Ok(()) => return Ok(worker.generation),
                Err(SendError(returned)) => {
                    req = returned;
                    restarts += 1;
                    if restarts > self.cfg.fault.restart_attempts {
                        link.settle_err();
                        return Err(
                            self.worker_lost("arm worker's request channel is closed", link.arm)
                        );
                    }
                    if let Err(e) =
                        self.restart_worker(link, &mut worker, "request channel closed at dispatch")
                    {
                        link.settle_err();
                        return Err(e);
                    }
                }
            }
        }
    }

    /// Dispatches one request built by `make` to `link`, returning
    /// the in-flight reply handle.
    fn dispatch<R>(
        &self,
        link: &ArmLink,
        make: &impl Fn(Sender<R>) -> ArmRequest,
    ) -> IndexResult<InFlight<R>> {
        let (tx, rx) = channel();
        let generation = self.send_to(link, make(tx))?;
        Ok(InFlight { generation, rx })
    }

    /// Waits for an in-flight request's reply, surviving worker
    /// deaths: a disconnect means the request died *unprocessed* (a
    /// processed request's reply is buffered before the worker can
    /// exit), so after making sure a replacement worker is running it
    /// is safe to re-issue the same request. Bounded by the configured
    /// restart attempts. On `Ok` the caller still owes the settle for
    /// the accepted request; every failed attempt is settled here.
    fn collect<R>(
        &self,
        link: &ArmLink,
        mut inflight: InFlight<R>,
        what: &'static str,
        make: &impl Fn(Sender<R>) -> ArmRequest,
    ) -> IndexResult<R> {
        let mut restarts = 0u32;
        loop {
            match inflight.rx.recv() {
                Ok(r) => return Ok(r),
                Err(_) => {
                    link.settle_err();
                    self.ensure_restarted(link, inflight.generation, what)?;
                    restarts += 1;
                    if restarts > self.cfg.fault.restart_attempts {
                        return Err(self.worker_lost(what, link.arm));
                    }
                    inflight = self.dispatch(link, make)?;
                }
            }
        }
    }

    /// Whether a query may use `link`'s arm right now. Only consulted
    /// when degraded reads are enabled: without them, skipping an arm
    /// would silently drop its slots, so every arm is always admitted
    /// and failures surface as errors instead.
    fn admit(&self, link: &ArmLink) -> bool {
        if !self.cfg.fault.degraded_reads {
            return true;
        }
        link.lock_breaker().admit()
    }

    /// Books one failed arm into a fanned-out query: records the
    /// error on the arm's breaker, then either marks the arm's slots
    /// missing (degraded reads) or keeps the first error for the
    /// whole query.
    fn absorb_arm_failure(
        &self,
        link: &ArmLink,
        e: IndexError,
        missing_arms: &mut Vec<usize>,
        first_err: &mut Option<IndexError>,
    ) {
        if link.lock_breaker().record_error() {
            self.breaker_trips.inc();
        }
        if self.cfg.fault.degraded_reads {
            missing_arms.push(link.arm);
        } else if first_err.is_none() {
            *first_err = Some(e);
        }
    }

    /// Publishes a degraded answer: bumps `server.degraded_queries`
    /// and mints a root-spanned incident trace naming the operation,
    /// the originating query's trace and the uncovered slot count,
    /// with an `error` end field so flight recorders promote it.
    fn degraded_query(&self, op: &'static str, query_trace: u64, partial: &PartialAnswer) {
        self.degraded.inc();
        let mut span = self.obs.root_span(
            "server.degraded_query",
            fields![
                ("op", op),
                ("query_trace", query_trace),
                ("missing_slots", partial.missing_slots.len() as u64)
            ],
        );
        span.set_end_field(
            "error",
            format!(
                "degraded answer: {} slot(s) uncovered",
                partial.missing_slots.len()
            ),
        );
    }

    /// Chaos hook: kills `arm`'s worker thread. The worker exits
    /// without replying; requests still queued behind the kill are
    /// re-issued by their supervising callers against the restarted
    /// worker, which reattaches to the same arm state. A worker that
    /// is already dead makes this a no-op.
    pub fn kill_worker(&self, arm: usize) -> IndexResult<()> {
        let link = self.arm(arm)?;
        let worker = link.lock_worker();
        let _ = worker.tx.send(ArmRequest::Kill);
        Ok(())
    }

    /// Chaos hook: arms a transient read-fault burst on `arm`'s
    /// volume — after `after` further device operations, the next
    /// `count` fail with a retryable transient error. Exercises the
    /// serving-path retry and, when the burst outlasts the retry
    /// budget, the circuit breaker.
    pub fn inject_transient_reads(&self, arm: usize, after: u64, count: u64) -> IndexResult<()> {
        let link = self.arm(arm)?;
        link.lock_core().vol.inject_transient_after(after, count);
        Ok(())
    }

    /// Chaos hook: disarms any fault plans on `arm`'s volume.
    pub fn clear_arm_faults(&self, arm: usize) -> IndexResult<()> {
        let link = self.arm(arm)?;
        link.lock_core().vol.clear_fault();
        Ok(())
    }

    /// Operator/chaos hook: trips `arm`'s circuit breaker
    /// immediately. Queries skip the arm (its slots appear in
    /// [`PartialAnswer::missing_slots`]) until the cooldown expires
    /// and a half-open probe succeeds.
    pub fn quarantine_arm(&self, arm: usize) -> IndexResult<()> {
        let link = self.arm(arm)?;
        link.lock_breaker().trip();
        self.breaker_trips.inc();
        Ok(())
    }

    /// Builds and installs a whole wave: `slot_batches[j]` holds the
    /// day batches of slot `j`. Slots are placed over the query arms
    /// by the configured [`PlacementStrategy`] (greedy weighs slots
    /// by entry count) and built **concurrently**, one build per arm
    /// at a time. Returns the build elapsed time — the busiest arm's
    /// share, the parallel-build advantage of Section 8.
    pub fn install_wave(&self, slot_batches: Vec<Vec<DayBatch>>) -> IndexResult<f64> {
        let route = self.route_read()?;
        let query_arms = self.query_arms(&route);
        drop(route);
        let weights: Vec<u64> = slot_batches
            .iter()
            .map(|b| b.iter().map(|d| d.entry_count() as u64).sum())
            .collect();
        let map = ArmMap::build(self.cfg.strategy, &weights, query_arms.len());
        let mut span = self.obs.root_span(
            "server.install",
            fields![
                ("slots", slot_batches.len() as u64),
                ("arms", query_arms.len() as u64)
            ],
        );
        let ctx = span.ctx();
        let result = (|| -> IndexResult<f64> {
            let epoch = self.epoch();
            let mut placements = BTreeMap::new();
            let mut placed: Vec<(usize, usize, Vec<DayBatch>)> = Vec::new();
            for (slot, batches) in slot_batches.into_iter().enumerate() {
                let arm = *query_arms.get(map.arm_of(slot)).ok_or_else(|| {
                    IndexError::Corrupt(format!("placement mapped slot {slot} past the query arms"))
                })?;
                placements.insert(slot, arm);
                placed.push((slot, arm, batches));
            }
            // Dispatch every build first (they run concurrently, one
            // per arm at a time), then collect. Collect every reply
            // even on error so queue-depth gauges and the placement
            // table stay coherent.
            let mut first_err: Option<IndexError> = None;
            let mut inflight: Vec<(usize, InFlight<IndexResult<BuildDone>>)> = Vec::new();
            for (pi, (slot, arm, batches)) in placed.iter().enumerate() {
                let make = build_request(*slot, epoch, batches, ctx);
                match self.arm(*arm).and_then(|link| self.dispatch(link, &make)) {
                    Ok(inf) => inflight.push((pi, inf)),
                    Err(e) => first_err = first_err.or(Some(e)),
                }
            }
            let mut per_arm = vec![0.0f64; self.arms.len()];
            let mut done = 0usize;
            let mut metas: Vec<(usize, SlotMeta)> = Vec::new();
            for (pi, inf) in inflight {
                let Some((slot, arm, batches)) = placed.get(pi) else {
                    continue;
                };
                let Ok(link) = self.arm(*arm) else {
                    continue;
                };
                let make = build_request(*slot, epoch, batches, ctx);
                match self.collect(link, inf, "arm worker disconnected mid-install", &make) {
                    Ok(Ok(BuildDone {
                        arm,
                        io,
                        span,
                        filter,
                    })) => {
                        done += 1;
                        link.settle(&io);
                        if let Some(s) = per_arm.get_mut(arm) {
                            *s += io.sim_seconds;
                        }
                        metas.push((*slot, SlotMeta { span, filter }));
                    }
                    Ok(Err(e)) => {
                        link.settle(&StatsDelta::default());
                        first_err = first_err.or(Some(e));
                    }
                    Err(e) => first_err = first_err.or(Some(e)),
                }
            }
            span.event("server.install.done", fields![("builds", done as u64)]);
            if let Some(e) = first_err {
                return Err(e);
            }
            let mut route = self.route_write()?;
            route.arm_of.extend(placements.iter());
            route.slot_meta.extend(metas);
            drop(route);
            Ok(per_arm.iter().fold(0.0, |a, &b| a.max(b)))
        })();
        match &result {
            Ok(elapsed) => {
                let us = sim_micros(*elapsed);
                // "build_us", not "latency_us": installs are bulk
                // admin work, expected to dwarf any query-latency
                // promotion threshold. Keying the flight recorder off
                // "latency_us" only keeps every install from crowding
                // slow *queries* out of the promoted ring; installs
                // still promote on error.
                span.set_end_field("build_us", us);
                self.obs
                    .slo()
                    .record("server.install", None, us, ctx.trace_id);
            }
            Err(e) => span.set_end_field("error", e.to_string()),
        }
        result
    }

    /// Decides whether `arm` needs no request for a probe of `values`:
    /// it can be elided when every slot routed to it is empty, outside
    /// `range`, or — per its [`SlotMeta`] filter — provably holds none
    /// of the values. Returns the range-intersecting slots whose
    /// access the caller must reconstruct (an un-elided arm would have
    /// reported each with empty entries), or `None` if the arm must be
    /// asked. A slot without metadata or filter forces dispatch —
    /// elision is an optimisation, never a guess.
    fn elide_arm(
        &self,
        route: &Route,
        arm: usize,
        values: &[SearchValue],
        range: TimeRange,
    ) -> Option<Vec<usize>> {
        let mut reconstructed = Vec::new();
        for (&slot, &slot_arm) in &route.arm_of {
            if slot_arm != arm {
                continue;
            }
            let meta = route.slot_meta.get(&slot)?;
            let Some((lo, hi)) = meta.span else {
                continue; // empty constituent: the arm would skip it too
            };
            if !range.intersects_span(lo, hi) {
                continue;
            }
            let filter = meta.filter.as_ref()?;
            if values.iter().any(|v| filter.may_contain(v)) {
                return None;
            }
            reconstructed.push(slot);
        }
        // Count only on a successful elision: a dispatched arm
        // re-checks its own filters and counts there, so every
        // consulted (slot, value) pair is counted exactly once.
        let pairs = (reconstructed.len() * values.len()) as u64;
        self.obs.counter("filter.checks").add(pairs);
        self.obs.counter("filter.skips").add(pairs);
        self.obs.counter("filter.arm_elisions").inc();
        Some(reconstructed)
    }

    /// Which arms serve queries (all arms minus the maintenance arm).
    fn query_arms(&self, route: &Route) -> Vec<usize> {
        (0..self.arms.len())
            .filter(|a| Some(*a) != route.maintenance)
            .collect()
    }

    /// `TimedIndexProbe` fanned out over the owning arms.
    pub fn probe(&self, value: &SearchValue, range: TimeRange) -> IndexResult<ServerQuery> {
        self.fan_out(Some(value), range)
    }

    /// `TimedSegmentScan` fanned out over the owning arms.
    pub fn scan(&self, range: TimeRange) -> IndexResult<ServerQuery> {
        self.fan_out(None, range)
    }

    fn fan_out(&self, value: Option<&SearchValue>, range: TimeRange) -> IndexResult<ServerQuery> {
        // Readers hold the route lock for the whole query: one
        // consistent generation, maintenance flips wait for us.
        let route = self.route_read()?;
        self.queries.inc();
        let target_arms = route.target_arms();
        let mut span = self.obs.root_span(
            "server.query",
            fields![
                // "op" not "kind": the JSONL envelope already uses
                // "kind" for the event kind.
                ("op", if value.is_some() { "probe" } else { "scan" }),
                ("fanout", target_arms.len() as u64)
            ],
        );
        let ctx = span.ctx();
        let query = value.map_or(ArmQuery::Scan, |v| ArmQuery::Probe(v.clone()));
        let result = self.gather(route, &target_arms, query, range, ctx, "server.query");
        self.finish_query(&mut span, ctx, "server.query", "server.query.done", &result);
        result.map(|q| ServerQuery {
            entries: q.per_value.into_iter().next().unwrap_or_default(),
            indexes_accessed: q.indexes_accessed,
            elapsed_seconds: q.elapsed_seconds,
            serial_seconds: q.serial_seconds,
            per_arm_seconds: q.per_arm_seconds,
            partial: q.partial,
        })
    }

    /// The fan-out body below the root spans [`WaveServer::fan_out`]
    /// and [`WaveServer::query_batch`] mint, holding the `route`
    /// snapshot they took. Answers one entry list per queried value
    /// (one for a probe or scan), each in ascending slot order.
    fn gather(
        &self,
        route: RwLockReadGuard<'_, Route>,
        target_arms: &[usize],
        query: ArmQuery,
        range: TimeRange,
        ctx: TraceCtx,
        op: &'static str,
    ) -> IndexResult<ServerBatchQuery> {
        let values = query.values();
        let lanes = values.map_or(1, <[SearchValue]>::len);
        let make = |reply| ArmRequest::Query {
            query: query.clone(),
            range,
            ctx,
            reply,
        };
        // Dispatch to every admitted arm first so they work
        // concurrently; arms the breaker holds in quarantine are
        // skipped up front and reported as missing slots. An arm whose
        // routing metadata proves that *every* value misses *all* of
        // its slots gets *no request at all* — its (empty)
        // contribution is reconstructed, so the answer stays
        // byte-identical. A scan has no values, so it is never elided.
        // The breaker is consulted first so elision never changes
        // quarantine/cooldown pacing.
        let mut missing_arms: Vec<usize> = Vec::new();
        let mut first_err: Option<IndexError> = None;
        let mut dispatched: Vec<(&ArmLink, InFlight<IndexResult<ArmAnswer>>)> = Vec::new();
        let mut per_slot: Vec<(usize, Vec<Vec<Entry>>)> = Vec::new();
        for &arm in target_arms {
            let link = self.arm(arm)?;
            if !self.admit(link) {
                missing_arms.push(arm);
                continue;
            }
            if let Some(elided) = values.and_then(|v| self.elide_arm(&route, arm, v, range)) {
                // Mirror an un-elided arm's answer shape: one empty
                // entry list per value for each intersecting slot.
                per_slot.extend(
                    elided
                        .into_iter()
                        .map(|slot| (slot, vec![Vec::new(); lanes])),
                );
                continue;
            }
            match self.dispatch(link, &make) {
                Ok(inf) => dispatched.push((link, inf)),
                Err(e) => self.absorb_arm_failure(link, e, &mut missing_arms, &mut first_err),
            }
        }
        let mut per_arm_seconds = vec![0.0f64; self.arms.len()];
        for (link, inf) in dispatched {
            match self.collect(link, inf, "arm worker disconnected mid-query", &make) {
                Ok(Ok(answer)) => {
                    link.settle(&answer.io);
                    link.lock_breaker().record_success();
                    if let Some(s) = per_arm_seconds.get_mut(answer.arm) {
                        *s = answer.io.sim_seconds;
                    }
                    // During a maintenance hand-over two arms briefly
                    // hold a generation of the same slot — the new one
                    // just routed in, the displaced one awaiting its
                    // Drop. The route snapshot held across this query
                    // decides whose answer counts, so readers never see
                    // a slot twice.
                    per_slot.extend(
                        answer
                            .per_slot
                            .into_iter()
                            .filter(|(slot, _)| route.arm_of.get(slot) == Some(&answer.arm)),
                    );
                }
                Ok(Err(e)) => {
                    // The worker is alive and replied with a typed
                    // error (e.g. a transient burst outlasting the
                    // retry budget).
                    link.settle(&StatsDelta::default());
                    self.absorb_arm_failure(link, e, &mut missing_arms, &mut first_err);
                }
                Err(e) => self.absorb_arm_failure(link, e, &mut missing_arms, &mut first_err),
            }
        }
        if let Some(e) = first_err {
            drop(route);
            return Err(e);
        }
        let missing_slots: Vec<usize> = route
            .arm_of
            .iter()
            .filter(|(_, a)| missing_arms.contains(a))
            .map(|(s, _)| *s)
            .collect();
        drop(route);
        // Merge in ascending slot order: byte-identical to the
        // single-threaded WaveIndex iteration.
        per_slot.sort_by_key(|(slot, _)| *slot);
        let indexes_accessed = per_slot.len();
        let partial = (!missing_slots.is_empty()).then_some(PartialAnswer { missing_slots });
        if let Some(p) = &partial {
            self.degraded_query(op, ctx.trace_id, p);
        }
        let mut per_value = vec![Vec::new(); lanes];
        for (_, answers) in per_slot {
            append_per_value(&mut per_value, answers);
        }
        Ok(ServerBatchQuery {
            per_value,
            indexes_accessed,
            elapsed_seconds: per_arm_seconds.iter().fold(0.0f64, |a, &b| a.max(b)),
            serial_seconds: per_arm_seconds.iter().sum(),
            per_arm_seconds,
            partial,
        })
    }

    /// Shared root-span epilogue for the fan-out paths: emits the
    /// `done` event, stamps `latency_us`/`error` end fields
    /// (flight-recorder retention signals) and records the windowed
    /// SLO observations — one aggregate row per operation plus one per
    /// arm that did work, each carrying the request's trace id as the
    /// exemplar.
    fn finish_query(
        &self,
        span: &mut wave_obs::Span,
        ctx: TraceCtx,
        op: &str,
        done: &str,
        result: &IndexResult<ServerBatchQuery>,
    ) {
        match result {
            Ok(q) => {
                span.event(
                    done,
                    fields![
                        ("accessed", q.indexes_accessed as u64),
                        ("elapsed_s", q.elapsed_seconds)
                    ],
                );
                let us = sim_micros(q.elapsed_seconds);
                span.set_end_field("latency_us", us);
                let slo = self.obs.slo();
                slo.record(op, None, us, ctx.trace_id);
                for (arm, s) in q.per_arm_seconds.iter().enumerate() {
                    if *s > 0.0 {
                        slo.record(op, Some(arm as u64), sim_micros(*s), ctx.trace_id);
                    }
                }
            }
            Err(e) => span.set_end_field("error", e.to_string()),
        }
    }

    /// A batch of `TimedIndexProbe`s over one range, fanned out with
    /// **one scheduled I/O pass per arm**: each arm resolves every
    /// `(slot, value)` bucket through its in-memory directories and
    /// hands all the reads to
    /// [`IoScheduler`] together, so
    /// adjacent buckets merge and each head sweeps its arm once.
    /// Per-value answers are byte-identical to calling
    /// [`WaveServer::probe`] per value — only the device schedule
    /// (and therefore the simulated cost) differs.
    pub fn query_batch(
        &self,
        values: &[SearchValue],
        range: TimeRange,
    ) -> IndexResult<ServerBatchQuery> {
        if values.is_empty() {
            return Ok(ServerBatchQuery {
                per_value: Vec::new(),
                indexes_accessed: 0,
                elapsed_seconds: 0.0,
                serial_seconds: 0.0,
                per_arm_seconds: vec![0.0; self.arms.len()],
                partial: None,
            });
        }
        // Same locking discipline as `fan_out`: hold the route read
        // lock across the whole batch so every value sees one
        // placement generation.
        let route = self.route_read()?;
        self.queries.inc();
        let target_arms = route.target_arms();
        let mut span = self.obs.root_span(
            "server.query_batch",
            fields![
                ("values", values.len() as u64),
                ("fanout", target_arms.len() as u64)
            ],
        );
        let ctx = span.ctx();
        let query = ArmQuery::Batch(values.to_vec());
        let result = self.gather(route, &target_arms, query, range, ctx, "server.query_batch");
        self.finish_query(
            &mut span,
            ctx,
            "server.query_batch",
            "server.query_batch.done",
            &result,
        );
        result
    }

    /// Shadow-rebuilds `slot` from `batches` on the dedicated
    /// maintenance arm, then commits the next epoch: an O(1) routing
    /// flip moves the slot to the maintenance arm, the displaced
    /// constituent is released, and its arm becomes the new
    /// maintenance arm. Queries proceed untouched throughout the
    /// build; only the flip excludes them, momentarily.
    ///
    /// Requires [`ServerConfig::reserve_maintenance_arm`] and an
    /// already-installed `slot`.
    pub fn maintain(&self, slot: usize, batches: Vec<DayBatch>) -> IndexResult<MaintainReport> {
        let epoch = self.epoch() + 1;
        // The root span opens before any validation: a rejected
        // maintain must leave an error-promoted trace behind, not
        // vanish before the recorder sees it.
        let mut span = self.obs.root_span(
            "server.maintain",
            fields![("slot", slot as u64), ("epoch", epoch)],
        );
        let ctx = span.ctx();
        let result = (|| -> IndexResult<MaintainReport> {
            let (build_arm, old_arm) = {
                let route = self.route_read()?;
                let build_arm = route.maintenance.ok_or_else(|| {
                    IndexError::Corrupt("maintain needs a reserved maintenance arm".into())
                })?;
                let old_arm = *route.arm_of.get(&slot).ok_or_else(|| {
                    IndexError::Corrupt(format!("maintain of uninstalled slot {slot}"))
                })?;
                (build_arm, old_arm)
            };
            span.event(
                "server.maintain.routed",
                fields![("build_arm", build_arm as u64), ("old_arm", old_arm as u64)],
            );
            // Phase 1 (off the query path): build the replacement fully
            // on the maintenance arm, under the next epoch's label.
            // Supervised like any query: a maintenance-arm worker
            // death restarts the worker and re-issues the build.
            let link = self.arm(build_arm)?;
            let make = build_request(slot, epoch, &batches, ctx);
            let inf = self.dispatch(link, &make)?;
            let done =
                match self.collect(link, inf, "maintenance arm disconnected mid-build", &make) {
                    Ok(Ok(done)) => {
                        link.settle(&done.io);
                        done
                    }
                    Ok(Err(e)) => {
                        link.settle(&StatsDelta::default());
                        return Err(e);
                    }
                    Err(e) => return Err(e),
                };
            // Phase 2: the O(1) commit. Waits for in-flight queries, then
            // flips the route (and the slot's pruning metadata, in the
            // same critical section); new queries route to the new
            // generation.
            {
                let mut route = self.route_write()?;
                route.arm_of.insert(slot, build_arm);
                route.slot_meta.insert(
                    slot,
                    SlotMeta {
                        span: done.span,
                        filter: done.filter.clone(),
                    },
                );
                route.maintenance = Some(old_arm);
                self.epoch.store(epoch, Ordering::Release);
            }
            // Garbage-collect the displaced generation. No query can
            // reach it: the flip already routed the slot away.
            let link = self.arm(old_arm)?;
            let make = |reply| ArmRequest::Drop { slot, reply };
            let inf = self.dispatch(link, &make)?;
            let dropped = self.collect(link, inf, "displaced arm disconnected during GC", &make)?;
            link.settle(&StatsDelta::default());
            dropped?;
            span.event("server.maintain.done", fields![("epoch", epoch)]);
            Ok(MaintainReport {
                epoch,
                built_on: build_arm,
                released_from: old_arm,
                build_seconds: done.io.sim_seconds,
            })
        })();
        match &result {
            Ok(report) => {
                let us = sim_micros(report.build_seconds);
                // "build_us" for the same reason as install: a
                // maintenance rebuild is expected-slow admin work and
                // must not crowd slow queries out of the promoted
                // ring. Errors still promote.
                span.set_end_field("build_us", us);
                self.obs
                    .slo()
                    .record("server.maintain", None, us, ctx.trace_id);
            }
            Err(e) => span.set_end_field("error", e.to_string()),
        }
        result
    }

    /// Per-arm snapshots (slots owned, entries, blocks, busy time).
    pub fn status(&self) -> IndexResult<Vec<ArmStatus>> {
        let mut out = Vec::with_capacity(self.arms.len());
        for link in &self.arms {
            let make = |reply| ArmRequest::Status { reply };
            let inf = self.dispatch(link, &make)?;
            let status = self.collect(link, inf, "arm worker disconnected during status", &make)?;
            link.settle(&StatsDelta::default());
            out.push(status);
        }
        Ok(out)
    }

    /// Releases every constituent on every arm, stops the workers,
    /// and verifies no arm leaked blocks.
    pub fn shutdown(self) -> IndexResult<()> {
        let mut first_err = None;
        let mut leaked = 0u64;
        for link in &self.arms {
            // Supervised like any other request: a dead worker is
            // restarted so a live thread drains and releases the
            // shared arm state — otherwise a kill just before
            // shutdown would leak every constituent on the arm.
            let make = |reply| ArmRequest::Shutdown { reply };
            let drained = self.dispatch(link, &make).and_then(|inf| {
                self.collect(link, inf, "arm worker disconnected during shutdown", &make)
            });
            match drained {
                Ok(result) => {
                    link.settle(&StatsDelta::default());
                    match result {
                        Ok(live) => leaked += live,
                        Err(e) => first_err = first_err.or(Some(e)),
                    }
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        for link in &self.arms {
            let handle = link.lock_worker().handle.take();
            if let Some(h) = handle {
                let _ = h.join();
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if leaked > 0 {
            return Err(IndexError::Corrupt(format!(
                "server shutdown leaked {leaked} blocks"
            )));
        }
        Ok(())
    }
}

impl Drop for WaveServer {
    fn drop(&mut self) {
        // Best-effort Shutdown per arm (ignored if the worker is
        // already gone), then join so no thread outlives the server
        // (storage is simulated, nothing leaks outside the process).
        for link in &self.arms {
            let handle = {
                let mut worker = link.lock_worker();
                let (tx, _rx) = channel();
                let _ = worker.tx.send(ArmRequest::Shutdown { reply: tx });
                worker.handle.take()
            };
            if let Some(h) = handle {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Day, Record, RecordId};
    use crate::wave::WaveIndex;
    use wave_storage::DiskConfig;

    fn day_batch(day: u32, records: u64, word: &str) -> DayBatch {
        DayBatch::new(
            Day(day),
            (0..records)
                .map(|i| {
                    Record::with_values(
                        RecordId(day as u64 * 1_000 + i),
                        [SearchValue::from(word), SearchValue::from_u64(i % 7)],
                    )
                })
                .collect(),
        )
    }

    fn slot_batches(slots: usize, records: u64) -> Vec<Vec<DayBatch>> {
        (0..slots)
            .map(|j| vec![day_batch(j as u32 + 1, records, "k")])
            .collect()
    }

    /// Single-threaded oracle over one volume with the same contents.
    fn oracle(slot_batches: &[Vec<DayBatch>]) -> (WaveIndex, Volume) {
        let mut vol = Volume::new(DiskConfig::default());
        let mut wave = WaveIndex::with_slots(slot_batches.len());
        for (j, batches) in slot_batches.iter().enumerate() {
            let refs: Vec<&DayBatch> = batches.iter().collect();
            let idx = ConstituentIndex::build_packed(
                format!("slot{j}.e0"),
                IndexConfig::default(),
                &mut vol,
                &refs,
            )
            .unwrap();
            wave.install(j, idx);
        }
        (wave, vol)
    }

    #[test]
    fn server_matches_single_threaded_wave() {
        use std::sync::Arc;
        use wave_obs::MemorySink;
        // Slot 0 alone also indexes "solo", so every slot filter on the
        // other arm rejects it: probes and batches of "solo" elide that
        // arm, while a scan over the same range must still read it.
        let mut batches = slot_batches(4, 50);
        batches[0][0].records.push(Record::with_values(
            RecordId(999),
            [SearchValue::from("solo")],
        ));
        let (wave, mut vol) = oracle(&batches);
        let obs = Obs::new(Arc::new(MemorySink::new()));
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            obs.clone(),
        )
        .unwrap();
        server.install_wave(batches).unwrap();
        let values = [
            SearchValue::from("k"),
            SearchValue::from("solo"),
            SearchValue::from_u64(3),
        ];

        for range in [
            TimeRange::all(),
            TimeRange::between(Day(2), Day(3)),
            TimeRange::between(Day(9), Day(9)),
        ] {
            for value in &values {
                let want = wave.timed_index_probe(&mut vol, value, range).unwrap();
                let got = server.probe(value, range).unwrap();
                assert_eq!(got.entries, want.entries, "{value:?} range {range:?}");
                assert_eq!(got.indexes_accessed, want.indexes_accessed);
            }

            let want = wave.timed_segment_scan(&mut vol, range).unwrap();
            let got = server.scan(range).unwrap();
            assert_eq!(got.entries, want.entries, "range {range:?}");
            assert_eq!(got.indexes_accessed, want.indexes_accessed);

            let want = wave.query_batch(&mut vol, &values, range).unwrap();
            let got = server.query_batch(&values, range).unwrap();
            assert_eq!(got.per_value.len(), want.len());
            for (vi, want) in want.iter().enumerate() {
                assert_eq!(
                    got.per_value[vi], want.entries,
                    "value {vi} range {range:?}"
                );
                assert_eq!(got.indexes_accessed, want.indexes_accessed);
            }
        }

        // Over the whole wave, "solo" elides exactly the arm without
        // slot 0; the scan of that range elides nothing.
        let elisions = || obs.counter("filter.arm_elisions").get();
        let solo = [SearchValue::from("solo")];
        let before = elisions();
        let probe = server.probe(&solo[0], TimeRange::all()).unwrap();
        assert_eq!(elisions(), before + 1, "probe elides one arm");
        assert_eq!((probe.entries.len(), probe.indexes_accessed), (1, 4));
        let batch = server.query_batch(&solo, TimeRange::all()).unwrap();
        assert_eq!(elisions(), before + 2, "batch elides one arm");
        assert_eq!(batch.per_value, [probe.entries]);
        assert_eq!(batch.indexes_accessed, 4);
        let scan = server.scan(TimeRange::all()).unwrap();
        assert_eq!(elisions(), before + 2, "a scan is never elided");
        assert_eq!(scan.indexes_accessed, 4);
        assert!(
            scan.per_arm_seconds.iter().all(|s| *s > 0.0),
            "both arms read"
        );

        wave_cleanup(wave, &mut vol);
        server.shutdown().unwrap();
    }

    #[test]
    fn query_batch_matches_per_value_probes() {
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            Obs::noop(),
        )
        .unwrap();
        server.install_wave(slot_batches(4, 50)).unwrap();
        // A realistic mixed batch: a hot word, a numeric value, a miss,
        // and a duplicate of the hot word.
        let values = [
            SearchValue::from("k"),
            SearchValue::from_u64(3),
            SearchValue::from("absent"),
            SearchValue::from("k"),
        ];
        for range in [
            TimeRange::all(),
            TimeRange::between(Day(2), Day(3)),
            TimeRange::between(Day(9), Day(9)),
        ] {
            let batch = server.query_batch(&values, range).unwrap();
            assert_eq!(batch.per_value.len(), values.len());
            for (vi, value) in values.iter().enumerate() {
                let solo = server.probe(value, range).unwrap();
                assert_eq!(
                    batch.per_value[vi], solo.entries,
                    "value {vi} range {range:?}"
                );
                assert_eq!(batch.indexes_accessed, solo.indexes_accessed);
            }
        }
        let empty = server.query_batch(&[], TimeRange::all()).unwrap();
        assert!(empty.per_value.is_empty());
        assert_eq!(empty.indexes_accessed, 0);
        server.shutdown().unwrap();
    }

    #[test]
    fn elapsed_is_max_over_arms_and_beats_serial() {
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 4),
            ServerConfig::default(),
            Obs::noop(),
        )
        .unwrap();
        server.install_wave(slot_batches(4, 400)).unwrap();
        let q = server.scan(TimeRange::all()).unwrap();
        assert_eq!(q.indexes_accessed, 4);
        let max = q.per_arm_seconds.iter().fold(0.0f64, |a, &b| a.max(b));
        assert_eq!(q.elapsed_seconds, max);
        assert!(q.elapsed_seconds < q.serial_seconds);
        assert!(
            q.speedup() > 2.0,
            "4 equal arms speed up ~4x: {}",
            q.speedup()
        );
        server.shutdown().unwrap();
    }

    #[test]
    fn maintenance_swaps_epochs_off_the_query_path() {
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 3),
            ServerConfig {
                reserve_maintenance_arm: true,
                ..Default::default()
            },
            Obs::noop(),
        )
        .unwrap();
        // Two slots on two query arms; arm 2 is the spare.
        server.install_wave(slot_batches(2, 20)).unwrap();
        assert_eq!(server.maintenance_arm(), Some(2));
        assert_eq!(server.epoch(), 0);
        let before_hits = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap()
            .entries
            .len();
        assert_eq!(before_hits, 40);

        // Rebuild slot 1 with a bigger generation.
        let report = server.maintain(1, vec![day_batch(2, 35, "k")]).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.built_on, 2);
        assert_eq!(server.epoch(), 1);
        // The displaced arm rotated into the maintenance role.
        assert_eq!(server.maintenance_arm(), Some(report.released_from));
        assert_eq!(server.arm_of(1), Some(2));
        let after = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        assert_eq!(after.entries.len(), 20 + 35);
        // No stale blocks: total live equals the two live constituents.
        let status = server.status().unwrap();
        let slots: usize = status.iter().map(|s| s.slots.len()).sum();
        assert_eq!(slots, 2);
        server.shutdown().unwrap();
    }

    #[test]
    fn maintain_requires_reserved_arm_and_installed_slot() {
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            Obs::noop(),
        )
        .unwrap();
        server.install_wave(slot_batches(1, 5)).unwrap();
        assert!(server.maintain(0, vec![day_batch(1, 5, "k")]).is_err());
        server.shutdown().unwrap();

        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig {
                reserve_maintenance_arm: true,
                ..Default::default()
            },
            Obs::noop(),
        )
        .unwrap();
        assert!(server.maintain(7, vec![day_batch(1, 5, "k")]).is_err());
        server.shutdown().unwrap();
    }

    #[test]
    fn greedy_strategy_balances_skewed_slots() {
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig {
                strategy: PlacementStrategy::Greedy,
                ..Default::default()
            },
            Obs::noop(),
        )
        .unwrap();
        // Slot 0 is huge; greedy puts it alone on one arm.
        let mut batches = slot_batches(4, 10);
        batches[0] = vec![day_batch(1, 500, "k")];
        server.install_wave(batches).unwrap();
        let heavy_arm = server.arm_of(0).unwrap();
        for slot in 1..4 {
            assert_ne!(server.arm_of(slot), Some(heavy_arm), "slot {slot}");
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn per_arm_metrics_and_spans_flow() {
        use std::sync::Arc;
        use wave_obs::MemorySink;
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(sink.clone());
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            obs.clone(),
        )
        .unwrap();
        server.install_wave(slot_batches(2, 30)).unwrap();
        server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        assert_eq!(obs.counter("server.queries").get(), 1);
        for arm in 0..2 {
            assert!(obs.counter(&format!("server.arm{arm}.requests")).get() >= 2);
            assert!(obs.counter(&format!("server.arm{arm}.seeks")).get() >= 1);
            assert!(obs.counter(&format!("server.arm{arm}.busy_us")).get() > 0);
            assert_eq!(
                obs.gauge(&format!("server.arm{arm}.queue_depth")).get(),
                0.0
            );
        }
        let jsonl = sink.to_jsonl();
        assert!(jsonl.contains("server.install"), "{jsonl}");
        assert!(jsonl.contains("server.query"), "{jsonl}");
        server.shutdown().unwrap();
    }

    fn wave_cleanup(mut wave: WaveIndex, vol: &mut Volume) {
        wave.release_all(vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    /// Tentpole invariant: every request-scoped span emitted during a
    /// fan-out (install, probe, batch) carries the root's `trace_id`
    /// and a `parent_id` resolving inside the trace, so the flat JSONL
    /// stream reconstructs into exactly one rooted tree per request.
    #[test]
    fn fan_out_spans_form_single_rooted_trees() {
        use std::sync::Arc;
        use wave_obs::context::span_records_from_events;
        use wave_obs::{build_forest, MemorySink};
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::with_seed(sink.clone(), 99);
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 3),
            ServerConfig::default(),
            obs.clone(),
        )
        .unwrap();
        server.install_wave(slot_batches(3, 40)).unwrap();
        server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        server
            .query_batch(
                &[SearchValue::from("k"), SearchValue::from_u64(2)],
                TimeRange::all(),
            )
            .unwrap();
        server.shutdown().unwrap();

        let records = span_records_from_events(&sink.events());
        let forest = build_forest(&records);
        assert_eq!(
            forest.len(),
            3,
            "install + probe + batch each mint one trace"
        );
        for tree in &forest {
            assert!(
                tree.is_single_rooted(),
                "trace {:016x}: {} roots, {} orphans",
                tree.trace_id,
                tree.roots.len(),
                tree.orphans
            );
            assert!(tree.span_count() >= 2, "root plus at least one arm span");
            for rec in records.iter().filter(|r| r.trace_id == tree.trace_id) {
                assert_eq!(rec.trace_id, tree.trace_id);
            }
        }
        // Forest order follows trace-id value; sort by root span id
        // (emission order) to name the three requests.
        let mut names: Vec<(u64, &str)> = forest
            .iter()
            .map(|t| (t.roots[0].span.span_id, t.roots[0].span.name.as_str()))
            .collect();
        names.sort_unstable();
        assert_eq!(
            names.iter().map(|(_, n)| *n).collect::<Vec<_>>(),
            ["server.install", "server.query", "server.query_batch"]
        );
        // Arm child spans carry their arm attribution.
        assert!(records
            .iter()
            .any(|r| r.name == "arm.probe" && r.arm.is_some() && r.parent_id.is_some()));
        // The SLO windows saw the fan-out, exemplars pointing at real
        // trace ids from the forest.
        let rows = obs.slo().report();
        let query_row = rows
            .iter()
            .find(|r| r.op == "server.query" && r.arm.is_none())
            .expect("aggregate server.query row");
        assert!(forest.iter().any(|t| t.trace_id == query_row.exemplar));
        assert!(rows
            .iter()
            .any(|r| r.op == "server.query_batch" && r.arm.is_some()));
    }

    #[test]
    fn breaker_state_machine() {
        let mut b = Breaker::new(2, 3);
        assert!(b.admit());
        assert!(!b.record_error(), "first error only counts");
        assert!(b.record_error(), "second consecutive error trips");
        // Tripped: sits out cooldown-1 queries, then a half-open probe.
        assert!(!b.admit());
        assert!(!b.admit());
        assert!(b.admit(), "half-open probe admitted");
        assert!(b.record_error(), "half-open failure re-trips");
        assert!(!b.admit());
        assert!(!b.admit());
        assert!(b.admit());
        b.record_success();
        assert_eq!(b.state, BreakerState::Healthy);
        assert!(b.admit());
        assert!(!b.record_error(), "healthy again: error count restarted");
    }

    #[test]
    fn killed_workers_restart_and_queries_survive() {
        use std::sync::Arc;
        use wave_obs::MemorySink;
        let obs = Obs::new(Arc::new(MemorySink::new()));
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            obs.clone(),
        )
        .unwrap();
        server.install_wave(slot_batches(4, 30)).unwrap();
        let want = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        assert!(want.partial.is_none());
        for arm in 0..2 {
            server.kill_worker(arm).unwrap();
        }
        let got = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        assert_eq!(got.entries, want.entries, "restarted workers lose nothing");
        assert!(got.partial.is_none());
        assert!(obs.counter("server.worker_restarts").get() >= 2);
        for arm in 0..2 {
            assert_eq!(
                obs.gauge(&format!("server.arm{arm}.queue_depth")).get(),
                0.0,
                "pending accounting survives restarts"
            );
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn kill_just_before_shutdown_does_not_leak() {
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            Obs::noop(),
        )
        .unwrap();
        server.install_wave(slot_batches(2, 10)).unwrap();
        server.kill_worker(0).unwrap();
        // Shutdown restarts the dead worker so the shared arm state is
        // drained by a live thread; the internal leak check passes.
        server.shutdown().unwrap();
    }

    #[test]
    fn transient_read_bursts_are_retried_away() {
        use std::sync::Arc;
        use wave_obs::MemorySink;
        let obs = Obs::new(Arc::new(MemorySink::new()));
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            obs.clone(),
        )
        .unwrap();
        server.install_wave(slot_batches(4, 30)).unwrap();
        let want = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        for arm in 0..2 {
            server.inject_transient_reads(arm, 0, 2).unwrap();
        }
        let got = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        assert_eq!(got.entries, want.entries, "burst shorter than retry budget");
        assert!(got.partial.is_none());
        assert!(obs.counter("server.read_retries").get() >= 2);
        server.shutdown().unwrap();
    }

    #[test]
    fn query_batch_is_equivalent_under_transient_faults() {
        use std::sync::Arc;
        use wave_obs::MemorySink;
        let obs = Obs::new(Arc::new(MemorySink::new()));
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            obs.clone(),
        )
        .unwrap();
        server.install_wave(slot_batches(4, 40)).unwrap();
        let values = [
            SearchValue::from("k"),
            SearchValue::from_u64(3),
            SearchValue::from("absent"),
        ];
        let range = TimeRange::all();
        let want: Vec<Vec<Entry>> = values
            .iter()
            .map(|v| server.probe(v, range).unwrap().entries)
            .collect();
        for arm in 0..2 {
            server.inject_transient_reads(arm, 0, 2).unwrap();
        }
        let batch = server.query_batch(&values, range).unwrap();
        assert!(batch.partial.is_none());
        for (vi, entries) in want.iter().enumerate() {
            assert_eq!(&batch.per_value[vi], entries, "value {vi}");
        }
        assert!(obs.counter("server.read_retries").get() >= 2);
        server.shutdown().unwrap();
    }

    #[test]
    fn persistent_arm_failure_degrades_with_explicit_gaps() {
        use std::sync::Arc;
        use wave_obs::MemorySink;
        let obs = Obs::new(Arc::new(MemorySink::new()));
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            obs.clone(),
        )
        .unwrap();
        server.install_wave(slot_batches(4, 20)).unwrap();
        let want = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        // slot j holds day j+1, so entry.day maps an entry to a slot.
        let arm0_slots: Vec<usize> = (0..4).filter(|s| server.arm_of(*s) == Some(0)).collect();
        let covered: Vec<Entry> = want
            .entries
            .iter()
            .filter(|e| !arm0_slots.contains(&(e.day.0 as usize - 1)))
            .cloned()
            .collect();
        // A burst far beyond the retry budget: every query through arm
        // 0 fails until the breaker quarantines the arm.
        server.inject_transient_reads(0, 0, 1_000_000).unwrap();
        for i in 0..4 {
            let q = server
                .probe(&SearchValue::from("k"), TimeRange::all())
                .unwrap();
            let partial = q.partial.expect("degraded answer");
            assert_eq!(partial.missing_slots, arm0_slots, "query {i}");
            assert_eq!(q.entries, covered, "covered slots stay byte-identical");
        }
        assert!(obs.counter("server.breaker_trips").get() >= 1);
        assert!(obs.counter("server.degraded_queries").get() >= 4);
        // Heal the arm; after the cooldown the half-open probe
        // re-admits it and answers are whole again.
        server.clear_arm_faults(0).unwrap();
        let mut healed = None;
        for _ in 0..8 {
            let q = server
                .probe(&SearchValue::from("k"), TimeRange::all())
                .unwrap();
            if q.partial.is_none() {
                healed = Some(q);
                break;
            }
        }
        let healed = healed.expect("arm re-admitted after cooldown");
        assert_eq!(healed.entries, want.entries);
        server.shutdown().unwrap();
    }

    #[test]
    fn quarantine_skips_the_arm_then_half_open_readmits() {
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            Obs::noop(),
        )
        .unwrap();
        server.install_wave(slot_batches(4, 20)).unwrap();
        let want = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        server.quarantine_arm(1).unwrap();
        let q = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap();
        let partial = q.partial.expect("quarantined arm leaves gaps");
        assert!(!partial.missing_slots.is_empty());
        // The healthy arm's slots never go missing.
        for slot in &partial.missing_slots {
            assert_eq!(server.arm_of(*slot), Some(1));
        }
        let mut healed = None;
        for _ in 0..8 {
            let q = server
                .probe(&SearchValue::from("k"), TimeRange::all())
                .unwrap();
            if q.partial.is_none() {
                healed = Some(q);
                break;
            }
        }
        assert_eq!(healed.expect("re-admitted").entries, want.entries);
        server.shutdown().unwrap();
    }

    #[test]
    fn degraded_reads_off_propagates_arm_errors() {
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig {
                fault: FaultConfig {
                    degraded_reads: false,
                    ..FaultConfig::default()
                },
                ..ServerConfig::default()
            },
            Obs::noop(),
        )
        .unwrap();
        server.install_wave(slot_batches(4, 20)).unwrap();
        server.inject_transient_reads(0, 0, 1_000_000).unwrap();
        let err = server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .unwrap_err();
        assert!(err.is_transient(), "{err}");
        server.clear_arm_faults(0).unwrap();
        assert!(server
            .probe(&SearchValue::from("k"), TimeRange::all())
            .is_ok());
        server.shutdown().unwrap();
    }

    /// A flight recorder wired as the trace sink promotes queries whose
    /// root latency crosses the threshold; their traces come back
    /// verbatim from the promoted ring.
    #[test]
    fn flight_recorder_promotes_slow_server_queries() {
        use std::sync::Arc;
        use wave_obs::{FlightConfig, FlightRecorder};
        let recorder = Arc::new(FlightRecorder::new(FlightConfig {
            promote_latency_us: 1,
            ..FlightConfig::default()
        }));
        let obs = Obs::new(recorder.clone());
        let server = WaveServer::launch(
            DiskArray::new(DiskConfig::default(), 2),
            ServerConfig::default(),
            obs,
        )
        .unwrap();
        server.install_wave(slot_batches(2, 200)).unwrap();
        server.scan(TimeRange::all()).unwrap();
        server.shutdown().unwrap();
        let promoted = recorder.promoted();
        let scan = promoted
            .iter()
            .find(|t| t.root_name == "server.query")
            .expect("slow scan promoted");
        assert!(scan.latency_us >= 1);
        assert!(scan.error.is_none());
        assert!(
            scan.events.iter().any(|e| e.name == "arm.scan"),
            "promoted trace keeps its worker spans"
        );
    }
}

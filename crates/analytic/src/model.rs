//! Pricing: the schemes' own transition plans × Table 12 parameters →
//! the performance measures of Section 5 (space, query response,
//! transition time, pre-transition time, total daily work).
//!
//! The paper's Tables 8-11 are derived by reasoning about how many
//! days each scheme builds, adds, copies, and deletes per transition.
//! This module does that derivation mechanically: it runs a scheme's
//! [`Planner`] from `wave-index` over its [`ClusterState`] — the same
//! plans the executor runs against a volume — sizes each plan's ops in
//! days of data ([`trace_plan`]), and prices them under each update
//! technique.

use std::collections::BTreeSet;

use wave_index::schemes::{
    slot_index, ClusterState, Liveness, Planner, SchemeConfig, SchemeKind, TransitionPlan, WaveOp,
};
use wave_index::{Day, UpdateTechnique};

use crate::params::Params;

/// One logical operation, sized in days of data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `BuildIndex` over `days` days.
    Build {
        /// Days built from scratch.
        days: u32,
    },
    /// `AddToIndex` of `days` days into an index holding `target`
    /// days. `live` marks updates to a queryable constituent (these
    /// need a shadow under simple shadowing).
    Add {
        /// Days added.
        days: u32,
        /// Days already in the target index.
        target: u32,
        /// Whether the target is live in the wave index.
        live: bool,
    },
    /// Fused delete + insert on a live constituent (DEL's daily step;
    /// a single smart copy under packed shadowing).
    Replace {
        /// Days deleted.
        del: u32,
        /// Days inserted.
        add: u32,
        /// Days in the index before the operation.
        target: u32,
    },
    /// An explicit index copy of `days` days (temp materialisation;
    /// distinct from the implicit shadow copies the pricing layer adds
    /// for live updates under simple shadowing).
    Copy {
        /// Days copied.
        days: u32,
    },
}

/// One transition plan sized in days of data.
#[derive(Debug, Clone, Default)]
pub struct DayTrace {
    /// Operations that need no new data.
    pub pre: Vec<Op>,
    /// Operations on the critical path.
    pub trans: Vec<Op>,
    /// Operations after the new day is queryable.
    pub post: Vec<Op>,
    /// Days stored in constituents at end of day (soft windows exceed
    /// `W`).
    pub constituent_days: u32,
    /// Days stored in temporary indexes at end of day.
    pub temp_days: u32,
    /// Size (days, including additions) of the live constituent
    /// updated today — the shadow's footprint under shadowing.
    pub live_update_days: u32,
    /// Size (days) of a replacement written today next to the
    /// constituent it replaces, which coexists with it under every
    /// technique.
    pub rebuild_days: u32,
    /// Live constituent count (for average-index-size queries).
    pub live_indexes: u32,
}

impl DayTrace {
    /// Average days per live constituent (query model's `k̄`).
    pub fn avg_index_days(&self) -> f64 {
        if self.live_indexes == 0 {
            0.0
        } else {
            self.constituent_days as f64 / self.live_indexes as f64
        }
    }
}

/// Sizes `plan` in days of data against `state`, the state it starts
/// from, and advances `state` past it. Four rules map the plan's
/// [`WaveOp`]s onto the priced [`Op`]s:
///
/// * a live `DeleteFromIndex` then `AddToIndex` on the same slot is one
///   [`Op::Replace`];
/// * an `AddToIndex` is live unless its slot was replaced or dropped
///   earlier in the plan ([`Liveness`]);
/// * `rebuild_days` is the final size of a slot written while it holds
///   a not-yet-installed replacement (built, copied or renamed into an
///   occupied slot);
/// * so a `DropIndex` then `BuildIndex` is not a rebuild: nothing
///   coexists. Drops and renames cost nothing.
pub fn trace_plan(plan: &TransitionPlan, state: &mut ClusterState) -> DayTrace {
    let size = |state: &ClusterState, label: &str| state.days(label).map_or(0, |d| d.len()) as u32;
    let mut day = DayTrace::default();
    let mut liveness = Liveness::default();
    // Slots holding a replacement not yet installed, and those of them
    // written today.
    let mut replacing = BTreeSet::new();
    let mut rebuilt = BTreeSet::new();
    let mut deleting = None;
    for (phase, ops) in [&plan.precomp, &plan.transition, &plan.post]
        .into_iter()
        .enumerate()
    {
        for op in ops {
            let live = liveness.observe(op);
            let target = op.target();
            let target_days = size(state, target);
            let replaces = matches!(
                op,
                WaveOp::Build { .. } | WaveOp::Copy { .. } | WaveOp::Rename { .. }
            );
            if replaces && slot_index(target).is_some() && target_days > 0 {
                replacing.insert(target);
            }
            let writes = matches!(
                op,
                WaveOp::Build { .. } | WaveOp::Copy { .. } | WaveOp::Add { .. }
            );
            if writes && replacing.contains(target) {
                rebuilt.insert(target);
            }
            let sized = match op {
                WaveOp::Build { days, .. } => Some(Op::Build {
                    days: days.len() as u32,
                }),
                WaveOp::Copy { from, .. } => Some(Op::Copy {
                    days: size(state, from),
                }),
                WaveOp::Delete { days, .. } if live => {
                    deleting = Some((days.len() as u32, target_days));
                    None
                }
                WaveOp::Add { days, .. } => {
                    let add = days.len() as u32;
                    if live {
                        day.live_update_days += target_days + add;
                    }
                    Some(match deleting.take() {
                        Some((del, target)) if live => Op::Replace { del, add, target },
                        _ => Op::Add {
                            days: add,
                            target: target_days,
                            live,
                        },
                    })
                }
                WaveOp::Delete { .. } | WaveOp::Drop { .. } | WaveOp::Rename { .. } => None,
            };
            state.apply_op(op);
            if let Some(sized) = sized {
                [&mut day.pre, &mut day.trans, &mut day.post][phase].push(sized);
            }
        }
    }
    // The plan's empty indexes: `I ← φ`.
    for label in &plan.empty {
        state.apply_op(&WaveOp::Build {
            target: label.clone(),
            days: Vec::new(),
        });
    }
    day.rebuild_days = rebuilt.iter().map(|label| size(state, label)).sum();
    day.constituent_days = state.length() as u32;
    day.temp_days = state.temp_days() as u32;
    day.live_indexes = state.fan() as u32;
    day
}

/// Produces `horizon` transition traces (days `W+1 ..= W+horizon`) for
/// a scheme at `(W, n)`, by running its planner from `Start`.
///
/// # Panics
/// Panics on configurations the scheme itself rejects (`n > W`, or
/// `n < 2` for the WATA family).
pub fn trace_scheme(kind: SchemeKind, window: u32, fan: usize, horizon: u32) -> Vec<DayTrace> {
    let planner = Planner::new(kind, &SchemeConfig::new(window, fan))
        .unwrap_or_else(|e| panic!("invalid (W, n) for {kind}: {e}"));
    let mut state = ClusterState::new(fan);
    state.apply(&planner.start());
    (window + 1..=window + horizon)
        .map(|t| {
            let plan = planner
                .plan(&state, Day(t))
                .expect("a planner plans from its own states");
            trace_plan(&plan, &mut state)
        })
        .collect()
}

/// Average maintenance seconds per day, split by phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Maintenance {
    /// Pre-computation (before the new data arrives).
    pub pre: f64,
    /// Critical transition path.
    pub trans: f64,
    /// Post-work (new data already queryable).
    pub post: f64,
}

impl Maintenance {
    /// All maintenance seconds.
    pub fn total(&self) -> f64 {
        self.pre + self.trans + self.post
    }

    /// The paper's *pre-transition time* (pre-computation + post-work).
    pub fn pre_transition(&self) -> f64 {
        self.pre + self.post
    }
}

/// Every Section 5 measure for one `(scheme, technique, W, n)` point.
#[derive(Debug, Clone, Copy)]
pub struct Evaluation {
    /// Scheme evaluated.
    pub kind: SchemeKind,
    /// Update technique evaluated.
    pub technique: UpdateTechnique,
    /// Constituent count.
    pub fan: usize,
    /// Average daily maintenance.
    pub maintenance: Maintenance,
    /// Worst single-day transition seconds.
    pub transition_max: f64,
    /// Seconds for one `TimedIndexProbe` touching `Probe_idx` indexes.
    pub probe_seconds: f64,
    /// Constituents one probe touches (`Probe_idx` resolved).
    pub probe_indexes: f64,
    /// Seconds for one `TimedSegmentScan` touching `Scan_idx` indexes.
    pub scan_seconds: f64,
    /// Constituents one scan touches (`Scan_idx` resolved).
    pub scan_indexes: f64,
    /// Seconds per day answering the query load.
    pub query_seconds: f64,
    /// Total daily work: maintenance + queries (Section 5 measure 5).
    pub total_work: f64,
    /// Bytes stored during operation, averaged over days.
    pub space_operation_avg: f64,
    /// Bytes stored during operation, worst day.
    pub space_operation_max: f64,
    /// Extra bytes during transitions (shadows/rebuilds), averaged.
    pub space_transition_avg: f64,
    /// Extra bytes during transitions, worst day.
    pub space_transition_max: f64,
}

impl Evaluation {
    /// Operation + transition space, averaged (what Figure 3 plots).
    pub fn space_total_avg(&self) -> f64 {
        self.space_operation_avg + self.space_transition_avg
    }

    /// One probe's elapsed seconds on a `disks`-disk array with
    /// round-robin placement (Section 8): the busiest disk serves
    /// `ceil(indexes / disks)` constituents.
    pub fn probe_seconds_parallel(&self, disks: usize) -> f64 {
        if self.probe_indexes == 0.0 {
            return 0.0;
        }
        let per_index = self.probe_seconds / self.probe_indexes;
        per_index * (self.probe_indexes / disks as f64).ceil()
    }

    /// One scan's elapsed seconds on a `disks`-disk array.
    pub fn scan_seconds_parallel(&self, disks: usize) -> f64 {
        if self.scan_indexes == 0.0 {
            return 0.0;
        }
        let per_index = self.scan_seconds / self.scan_indexes;
        per_index * (self.scan_indexes / disks as f64).ceil()
    }
}

/// Bytes one indexed day occupies for this scheme/technique: REINDEX
/// keeps constituents packed always; packed shadowing packs
/// everything; otherwise CONTIGUOUS slack applies.
fn bytes_per_day(kind: SchemeKind, technique: UpdateTechnique, p: &Params) -> f64 {
    if kind == SchemeKind::Reindex || technique == UpdateTechnique::PackedShadow {
        p.s_packed
    } else {
        p.s_unpacked
    }
}

/// Prices one op: `(pre-computable seconds, in-phase seconds)`.
fn price_op(op: &Op, technique: UpdateTechnique, p: &Params) -> (f64, f64) {
    match *op {
        Op::Build { days } => (0.0, days as f64 * p.build),
        Op::Copy { days } => {
            let cost = if technique == UpdateTechnique::PackedShadow {
                p.cp_packed(days as f64)
            } else {
                p.cp(days as f64)
            };
            (0.0, cost)
        }
        Op::Add { days, target, live } => match technique {
            UpdateTechnique::InPlace => (0.0, days as f64 * p.add),
            UpdateTechnique::SimpleShadow => {
                let pre = if live { p.cp(target as f64) } else { 0.0 };
                (pre, days as f64 * p.add)
            }
            UpdateTechnique::PackedShadow => {
                (0.0, p.smcp(target as f64, true) + days as f64 * p.build)
            }
        },
        Op::Replace { del, add, target } => match technique {
            UpdateTechnique::InPlace => (del as f64 * p.del, add as f64 * p.add),
            UpdateTechnique::SimpleShadow => {
                (p.cp(target as f64) + del as f64 * p.del, add as f64 * p.add)
            }
            UpdateTechnique::PackedShadow => {
                (0.0, p.smcp(target as f64, true) + add as f64 * p.build)
            }
        },
    }
}

/// Prices one day's maintenance.
pub fn price_day(day: &DayTrace, technique: UpdateTechnique, p: &Params) -> Maintenance {
    let mut m = Maintenance::default();
    for op in &day.pre {
        let (extra, cost) = price_op(op, technique, p);
        m.pre += extra + cost;
    }
    for op in &day.trans {
        let (pre, cost) = price_op(op, technique, p);
        // The pre-computable slice of a critical-path op (shadow
        // copies, eager deletes) runs before the data arrives.
        m.pre += pre;
        m.trans += cost;
    }
    for op in &day.post {
        let (extra, cost) = price_op(op, technique, p);
        m.post += extra + cost;
    }
    m
}

/// Evaluates a scheme at `(W, n)` under `technique` with `params`.
///
/// The horizon covers many full cluster cycles so averages are
/// steady-state.
///
/// ```
/// use wave_analytic::{evaluate, Params};
/// use wave_index::schemes::SchemeKind;
/// use wave_index::UpdateTechnique;
///
/// // Table 10's DEL row at one-day clusters: precompute the shadow
/// // copy and the deletion, pay only one Add at transition time.
/// let p = Params::scam();
/// let e = evaluate(SchemeKind::Del, UpdateTechnique::SimpleShadow, &p, 7);
/// assert!((e.maintenance.trans - 3341.0).abs() < 1e-6);
/// assert!(e.maintenance.pre > 3341.0);
/// ```
pub fn evaluate(
    kind: SchemeKind,
    technique: UpdateTechnique,
    params: &Params,
    fan: usize,
) -> Evaluation {
    let w = params.window;
    let horizon = (10 * w).max(200);
    let traces = trace_scheme(kind, w, fan, horizon);
    let bpd = bytes_per_day(kind, technique, params);

    let mut maintenance = Maintenance::default();
    let mut transition_max = 0.0f64;
    let mut kbar_sum = 0.0;
    let mut space_op_sum = 0.0;
    let mut space_op_max = 0.0f64;
    let mut space_tr_sum = 0.0;
    let mut space_tr_max = 0.0f64;
    for day in &traces {
        let m = price_day(day, technique, params);
        maintenance.pre += m.pre;
        maintenance.trans += m.trans;
        maintenance.post += m.post;
        transition_max = transition_max.max(m.trans);
        kbar_sum += day.avg_index_days();

        let op_bytes = (day.constituent_days + day.temp_days) as f64 * bpd;
        space_op_sum += op_bytes;
        space_op_max = space_op_max.max(op_bytes);
        let extra_days = day.rebuild_days
            + if technique == UpdateTechnique::InPlace {
                0
            } else {
                day.live_update_days
            };
        let tr_bytes = extra_days as f64 * bpd;
        space_tr_sum += tr_bytes;
        space_tr_max = space_tr_max.max(tr_bytes);
    }
    let days = traces.len() as f64;
    maintenance.pre /= days;
    maintenance.trans /= days;
    maintenance.post /= days;
    let kbar = kbar_sum / days;

    let probe_indexes = params.probe_idx.resolve(fan);
    let scan_indexes = params.scan_idx.resolve(fan);
    let probe_seconds = probe_indexes * (params.seek + kbar * params.c_bucket / params.trans);
    let scan_seconds = scan_indexes * (params.seek + kbar * bpd / params.trans);
    let query_seconds = params.probe_num * probe_seconds + params.scan_num * scan_seconds;

    Evaluation {
        kind,
        technique,
        fan,
        maintenance,
        transition_max,
        probe_seconds,
        probe_indexes,
        scan_seconds,
        scan_indexes,
        query_seconds,
        total_work: maintenance.total() + query_seconds,
        space_operation_avg: space_op_sum / days,
        space_operation_max: space_op_max,
        space_transition_avg: space_tr_sum / days,
        space_transition_max: space_tr_max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIMPLE: UpdateTechnique = UpdateTechnique::SimpleShadow;
    const PACKED: UpdateTechnique = UpdateTechnique::PackedShadow;

    /// Days each REINDEX transition rebuilds: the cluster sizes, each
    /// repeated once per day of its cycle.
    fn reindex_rebuilds(window: u32, fan: usize) -> Vec<u32> {
        trace_scheme(SchemeKind::Reindex, window, fan, window)
            .iter()
            .map(|day| day.rebuild_days)
            .collect()
    }

    #[test]
    fn cluster_sizes_ceil_first() {
        // Clusters of 4, 3, 3 days at W = 10, n = 3: ceil-sized first.
        let cycle = |sizes: &[u32]| -> Vec<u32> {
            sizes
                .iter()
                .flat_map(|&len| std::iter::repeat_n(len, len as usize))
                .collect()
        };
        assert_eq!(reindex_rebuilds(10, 3), cycle(&[4, 3, 3]));
        assert_eq!(reindex_rebuilds(10, 2), cycle(&[5, 5]));
        assert_eq!(reindex_rebuilds(7, 7), cycle(&[1; 7]));
    }

    #[test]
    fn del_trace_is_steady() {
        let tr = trace_scheme(SchemeKind::Del, 10, 2, 20);
        for day in &tr {
            assert_eq!(day.constituent_days, 10);
            assert!(day.pre.is_empty() && day.post.is_empty());
            assert_eq!(
                day.trans,
                vec![Op::Replace {
                    del: 1,
                    add: 1,
                    target: 5
                }]
            );
            assert_eq!(day.live_update_days, 5);
        }
    }

    #[test]
    fn reindex_trace_rebuilds_clusters() {
        let tr = trace_scheme(SchemeKind::Reindex, 10, 3, 10);
        // Clusters 4, 3, 3: the first four days rebuild the 4-day
        // cluster.
        assert_eq!(tr[0].trans, vec![Op::Build { days: 4 }]);
        assert_eq!(tr[4].trans, vec![Op::Build { days: 3 }]);
        assert_eq!(tr[0].rebuild_days, 4);
    }

    #[test]
    fn reindex_plus_cycle_day_counts() {
        // W = 10, n = 2 (Table 5): per cycle the days indexed are
        // 5, 4, 3, 2, 1 → average 3 per day.
        let tr = trace_scheme(SchemeKind::ReindexPlus, 10, 2, 10);
        let days_indexed = |t: &DayTrace| -> u32 {
            t.trans
                .iter()
                .map(|op| match op {
                    Op::Build { days } | Op::Add { days, .. } => *days,
                    _ => 0,
                })
                .sum()
        };
        let per_day: Vec<u32> = tr.iter().map(days_indexed).collect();
        assert_eq!(&per_day[..5], &[5, 4, 3, 2, 1]);
        assert_eq!(&per_day[5..10], &[5, 4, 3, 2, 1]);
        // Every day writes a replacement next to the expiring cluster.
        assert!(tr.iter().all(|day| day.rebuild_days == 5));
    }

    #[test]
    fn reindex_plus_plus_transition_is_one_day() {
        let tr = trace_scheme(SchemeKind::ReindexPlusPlus, 10, 2, 15);
        for (i, day) in tr.iter().enumerate() {
            assert_eq!(day.trans.len(), 1, "day {i}");
            assert!(matches!(day.trans[0], Op::Add { days: 1, .. }), "day {i}");
            // The renamed rung is not written after the rename.
            assert_eq!(day.rebuild_days, 0, "day {i}");
        }
        // Temp ladder storage right after init: 1+2+3+4 = 10 days.
        assert_eq!(tr[4].temp_days, 10, "ladder rebuilt at cycle end");
    }

    #[test]
    fn wata_trace_soft_window_length() {
        // W = 10, n = 4 (Table 3): lengths peak at 12.
        let tr = trace_scheme(SchemeKind::WataStar, 10, 4, 30);
        let max_len = tr.iter().map(|d| d.constituent_days).max().unwrap();
        assert_eq!(max_len, 12);
        // Throw days build exactly one day, and a drop then a build is
        // no rebuild.
        let throws: Vec<&DayTrace> = tr
            .iter()
            .filter(|d| matches!(d.trans[0], Op::Build { .. }))
            .collect();
        assert!(
            throws.len() >= 9,
            "throws happen every ~3 days: {}",
            throws.len()
        );
        assert!(throws.iter().all(|d| d.rebuild_days == 0));
    }

    #[test]
    fn rata_trace_keeps_hard_window_and_temps() {
        let tr = trace_scheme(SchemeKind::RataStar, 10, 4, 30);
        for day in &tr {
            assert_eq!(day.constituent_days, 10, "hard window");
        }
        // Ladder storage is nonzero right after a throw.
        assert!(tr.iter().any(|d| d.temp_days > 0));
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn invalid_config_panics() {
        trace_scheme(SchemeKind::WataStar, 10, 1, 5);
    }

    /// Table 10, DEL row (simple shadow): pre = X·CP + Del, trans =
    /// Add.
    #[test]
    fn del_simple_shadow_matches_table_10() {
        let p = Params::scam();
        let n = 7; // X = 1: every cluster one day
        let e = evaluate(SchemeKind::Del, SIMPLE, &p, n);
        let expect_pre = p.cp(1.0) + p.del;
        assert!((e.maintenance.pre - expect_pre).abs() < 1e-6);
        assert!((e.maintenance.trans - p.add).abs() < 1e-6);
        assert_eq!(e.maintenance.post, 0.0);
    }

    /// Table 10, REINDEX row: transition = X·Build, no pre-computation.
    #[test]
    fn reindex_matches_table_10() {
        let p = Params::scam();
        let e = evaluate(SchemeKind::Reindex, SIMPLE, &p, 1);
        assert!((e.maintenance.trans - 7.0 * p.build).abs() < 1e-6);
        assert_eq!(e.maintenance.pre, 0.0);
    }

    /// Table 11, DEL row (packed shadow): trans = X·SMCP + Build.
    #[test]
    fn del_packed_shadow_matches_table_11() {
        let p = Params::scam();
        let e = evaluate(SchemeKind::Del, PACKED, &p, 7);
        let expect = p.smcp(1.0, true) + p.build;
        assert!((e.maintenance.trans - expect).abs() < 1e-6);
        assert_eq!(e.maintenance.pre, 0.0);
    }

    /// REINDEX+ averages about half of REINDEX's daily build work
    /// (Section 4.1) at the cost of slower transitions.
    #[test]
    fn reindex_plus_halves_average_build_days() {
        let p = Params::scam().with_window(10);
        let plain = evaluate(SchemeKind::Reindex, SIMPLE, &p, 2);
        let plus = evaluate(SchemeKind::ReindexPlus, SIMPLE, &p, 2);
        // Plain: 5 builds/day = 8430 s. Plus: 3 add/build-days plus
        // copies — measured in days indexed, about half.
        assert!(plus.maintenance.total() < plain.maintenance.total() * 1.3);
        // REINDEX+ transitions are the slowest of the family (Fig 4).
        assert!(plus.maintenance.trans > plain.maintenance.trans * 0.5);
    }

    /// REINDEX++'s transition is a single add; its ladder work is off
    /// the critical path.
    #[test]
    fn reindex_plus_plus_fast_transition() {
        let p = Params::scam().with_window(10);
        let e = evaluate(SchemeKind::ReindexPlusPlus, SIMPLE, &p, 2);
        assert!((e.maintenance.trans - p.add).abs() < 1e-6);
        assert!(e.maintenance.post > 0.0, "ladder upkeep is post-work");
    }

    /// WATA* waits cost one add; throws cost one build; there is no
    /// deletion anywhere.
    #[test]
    fn wata_daily_work_is_one_day() {
        let p = Params::scam();
        let e = evaluate(SchemeKind::WataStar, UpdateTechnique::InPlace, &p, 3);
        assert!(e.maintenance.trans <= p.add + 1e-6);
        assert!(e.maintenance.trans >= p.build.min(p.add) - 1e-6);
        assert_eq!(e.maintenance.pre, 0.0);
    }

    /// Soft windows make WATA*'s scans read expired days: its average
    /// index size exceeds the hard-window schemes'.
    #[test]
    fn wata_scans_pay_for_soft_window() {
        let p = Params::tpcd();
        let wata = evaluate(SchemeKind::WataStar, SIMPLE, &p, 4);
        let del = evaluate(SchemeKind::Del, SIMPLE, &p, 4);
        assert!(wata.scan_seconds > del.scan_seconds);
    }

    /// Probe cost grows with n (more seeks), the Section 6 trade-off
    /// against per-cluster savings.
    #[test]
    fn probe_cost_grows_with_fan() {
        let p = Params::wse();
        let lo = evaluate(SchemeKind::Del, PACKED, &p, 1);
        let hi = evaluate(SchemeKind::Del, PACKED, &p, 7);
        assert!(hi.probe_seconds > 5.0 * lo.probe_seconds);
    }

    /// Space: REINDEX is minimal (packed, no temps) — Figure 3.
    #[test]
    fn reindex_space_is_minimal() {
        let p = Params::scam();
        for n in 1..=7usize {
            let reindex = evaluate(SchemeKind::Reindex, SIMPLE, &p, n);
            for kind in SchemeKind::ALL {
                if n < kind.min_fan() {
                    continue;
                }
                let other = evaluate(kind, SIMPLE, &p, n);
                assert!(
                    reindex.space_total_avg() <= other.space_total_avg() + 1.0,
                    "n={n}: REINDEX {} vs {kind} {}",
                    reindex.space_total_avg(),
                    other.space_total_avg()
                );
            }
        }
    }

    /// In-place updating needs no extra transition space except for
    /// from-scratch rebuilds.
    #[test]
    fn in_place_transition_space() {
        let p = Params::scam();
        let del = evaluate(SchemeKind::Del, UpdateTechnique::InPlace, &p, 2);
        assert_eq!(del.space_transition_avg, 0.0);
        let reindex = evaluate(SchemeKind::Reindex, UpdateTechnique::InPlace, &p, 2);
        assert!(
            reindex.space_transition_avg > 0.0,
            "rebuilds always coexist"
        );
    }
}

//! Schemes as pure planners (Appendix A over day sets).
//!
//! A [`Planner`] looks at a [`ClusterState`] — the time-set of every
//! constituent slot and temporary index — and the day arriving, and
//! returns the [`TransitionPlan`] of [`WaveOp`]s the scheme executes
//! that day, split into the three cost phases. It does no I/O: the
//! executor ([`Scheme`](super::Scheme)) runs a plan against a volume,
//! and `wave-analytic` prices the same plans (Section 5).
//!
//! Labels name the indexes: `I1 … In` are the constituent slots,
//! everything else is a temporary — REINDEX+'s `Temp`, the ladders
//! `T0 … TL` of REINDEX++ and RATA*, and the `N1 … Nk` rungs RATA*'s
//! spread mode builds for the cluster after the current one.

use std::collections::BTreeSet;

use crate::error::{IndexError, IndexResult};
use crate::record::Day;

use super::rata::{self, RataMode};
use super::wata::{self, WataStart};
use super::{del, reindex, reindex_plus, reindex_plus_plus};
use super::{SchemeConfig, SchemeKind, WaveOp, WindowKind};

/// Label of constituent slot `j` (0-based): `I{j+1}`.
pub(crate) fn slot_label(j: usize) -> String {
    format!("I{}", j + 1)
}

/// Slot (0-based) named by `label`, if it names a constituent.
pub fn slot_index(label: &str) -> Option<usize> {
    label
        .strip_prefix('I')?
        .parse::<usize>()
        .ok()?
        .checked_sub(1)
}

/// Table order of temporaries, highest first: spread-built `N` rungs
/// above the ladder, rungs by number (`T4, T3, …, T0`).
pub(crate) fn temp_rank(label: &str) -> (bool, u32) {
    let rung = label.trim_start_matches(|c: char| c.is_ascii_alphabetic());
    (label.starts_with('N'), rung.parse().unwrap_or(0))
}

/// Where a temporary labelled `label` goes in a list kept in table
/// order.
pub(crate) fn temp_position<'a>(
    mut labels: impl Iterator<Item = &'a str>,
    label: &str,
) -> Option<usize> {
    let rank = temp_rank(label);
    labels.position(|l| temp_rank(l) < rank)
}

/// The time-sets a scheme's decisions depend on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterState {
    /// Time-set of constituent `I{j+1}` (empty once dropped).
    pub(crate) slots: Vec<BTreeSet<Day>>,
    /// `(label, time-set)` of each temporary index, in table order
    /// (highest rung first).
    pub(crate) temps: Vec<(String, BTreeSet<Day>)>,
}

impl ClusterState {
    /// The state before `Start`: `fan` empty slots, no temporaries.
    pub fn new(fan: usize) -> Self {
        ClusterState {
            slots: vec![BTreeSet::new(); fan],
            temps: Vec::new(),
        }
    }

    /// Time-set of the index labelled `label`, if it exists.
    pub fn days(&self, label: &str) -> Option<&BTreeSet<Day>> {
        match slot_index(label) {
            Some(j) => self.slots.get(j),
            None => self.temps.iter().find(|(l, _)| l == label).map(|(_, d)| d),
        }
    }

    /// Number of constituent slots (the scheme's `n`).
    pub fn fan(&self) -> usize {
        self.slots.len()
    }

    /// Slot whose time-set contains `day`.
    pub(crate) fn slot_containing(&self, day: Day) -> Option<usize> {
        self.slots.iter().position(|days| days.contains(&day))
    }

    /// Total days across constituents (the paper's *length*).
    pub fn length(&self) -> usize {
        self.slots.iter().map(BTreeSet::len).sum()
    }

    /// Total days across temporaries.
    pub fn temp_days(&self) -> usize {
        self.temps.iter().map(|(_, days)| days.len()).sum()
    }

    /// `(label, time-set)` of every constituent, as
    /// [`WaveIndex::snapshot`](crate::wave::WaveIndex::snapshot) lists
    /// them.
    pub fn constituents(&self) -> Vec<(String, Vec<Day>)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(j, days)| (slot_label(j), days.iter().copied().collect()))
            .collect()
    }

    /// `(label, time-set)` of every temporary, in table order.
    pub fn temp_list(&self) -> Vec<(String, Vec<Day>)> {
        self.temps
            .iter()
            .map(|(label, days)| (label.clone(), days.iter().copied().collect()))
            .collect()
    }

    /// The time-set of `label`, created empty if absent.
    fn days_mut(&mut self, label: &str) -> &mut BTreeSet<Day> {
        if let Some(j) = slot_index(label) {
            return &mut self.slots[j];
        }
        let i = match self.temps.iter().position(|(l, _)| l == label) {
            Some(i) => i,
            None => {
                let i = temp_position(self.temps.iter().map(|(l, _)| l.as_str()), label)
                    .unwrap_or(self.temps.len());
                self.temps.insert(i, (label.to_string(), BTreeSet::new()));
                i
            }
        };
        &mut self.temps[i].1
    }

    /// Removes `label`'s time-set (a slot is left empty).
    fn take(&mut self, label: &str) -> BTreeSet<Day> {
        match slot_index(label) {
            Some(j) => std::mem::take(&mut self.slots[j]),
            None => match self.temps.iter().position(|(l, _)| l == label) {
                Some(i) => self.temps.remove(i).1,
                None => BTreeSet::new(),
            },
        }
    }

    /// Applies one operation to the time-sets.
    pub fn apply_op(&mut self, op: &WaveOp) {
        match op {
            WaveOp::Build { target, days } => {
                *self.days_mut(target) = days.iter().copied().collect()
            }
            WaveOp::Add { target, days } => self.days_mut(target).extend(days.iter().copied()),
            WaveOp::Delete { target, days } => {
                self.days_mut(target).retain(|d| !days.contains(d));
            }
            WaveOp::Drop { target } => {
                self.take(target);
            }
            WaveOp::Copy { from, to } => {
                let days = self.days(from).cloned().unwrap_or_default();
                *self.days_mut(to) = days;
            }
            WaveOp::Rename { from, to } => {
                let days = self.take(from);
                *self.days_mut(to) = days;
            }
        }
    }

    /// Applies a whole plan: its operations in order, then its empty
    /// indexes.
    pub fn apply(&mut self, plan: &TransitionPlan) {
        for op in plan.ops() {
            self.apply_op(op);
        }
        for label in &plan.empty {
            self.days_mut(label).clear();
        }
    }

    /// This state after `ops`.
    pub(crate) fn after<'a>(&self, ops: impl IntoIterator<Item = &'a WaveOp>) -> Self {
        let mut next = self.clone();
        for op in ops {
            next.apply_op(op);
        }
        next
    }

    /// Slot holding the day that expires as `new_day` arrives.
    pub(crate) fn expiring_slot(&self, expired: Day) -> IndexResult<usize> {
        self.slot_containing(expired)
            .ok_or_else(|| IndexError::Corrupt(format!("no constituent holds {expired}")))
    }

    /// `(label, time-set)` of the highest ladder rung (`T…`), if any.
    pub(crate) fn top_rung(&self) -> Option<(&str, &BTreeSet<Day>)> {
        self.temps
            .iter()
            .find(|(label, _)| label.starts_with('T'))
            .map(|(label, days)| (label.as_str(), days))
    }
}

/// One day's operations, by the phase their cost is charged to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransitionPlan {
    /// Work that needs no new data (drops). Live updates later in the
    /// plan also prepare here: shadow copies and eager deletions.
    pub precomp: Vec<WaveOp>,
    /// Work on the critical path, until the new day is queryable.
    pub transition: Vec<WaveOp>,
    /// Work after the new day is queryable (temp ladder upkeep).
    pub post: Vec<WaveOp>,
    /// Indexes the plan leaves allocated but empty (REINDEX++'s
    /// `T0 = φ`, the Table 4 start's last slot). Creating one costs no
    /// I/O, so the paper lists no operation for it.
    pub empty: Vec<String>,
}

impl TransitionPlan {
    /// Every operation, in execution order.
    pub fn ops(&self) -> impl Iterator<Item = &WaveOp> {
        self.precomp
            .iter()
            .chain(&self.transition)
            .chain(&self.post)
    }
}

/// Tells live updates from updates of indexes no query sees yet.
///
/// Fed a plan's operations in order, [`Liveness::observe`] reports
/// whether each `AddToIndex`/`DeleteFromIndex` updates a queryable
/// constituent: one whose slot label no earlier operation of the plan
/// built, copied or renamed into, or dropped. Live updates are what the
/// update techniques shadow; everything else is built offline.
#[derive(Debug, Default)]
pub struct Liveness {
    replaced: BTreeSet<String>,
}

impl Liveness {
    /// Whether `op` updates a live constituent.
    pub fn observe(&mut self, op: &WaveOp) -> bool {
        let target = op.target();
        match op {
            WaveOp::Add { .. } | WaveOp::Delete { .. } => {
                slot_index(target).is_some() && !self.replaced.contains(target)
            }
            _ => {
                self.replaced.insert(target.to_string());
                false
            }
        }
    }
}

/// `Build` operations for the start clusters, slot by slot; an empty
/// cluster becomes an empty index.
pub(crate) fn build_clusters(clusters: Vec<Vec<Day>>) -> TransitionPlan {
    let mut plan = TransitionPlan::default();
    for (j, days) in clusters.into_iter().enumerate() {
        if days.is_empty() {
            plan.empty.push(slot_label(j));
        } else {
            plan.transition.push(WaveOp::Build {
                target: slot_label(j),
                days,
            });
        }
    }
    plan
}

/// The operations building rungs `rungs` of a temp ladder labelled
/// `prefix` over the ascending `days` (Figures 15 and 17): rung 1 is
/// built from the newest day, each later rung copies the one below and
/// adds the next-older day.
pub(crate) fn ladder_ops(
    prefix: &str,
    days: &[Day],
    rungs: std::ops::RangeInclusive<usize>,
) -> Vec<WaveOp> {
    let mut ops = Vec::new();
    for m in rungs {
        let day = vec![days[days.len() - m]];
        let target = format!("{prefix}{m}");
        if m == 1 {
            ops.push(WaveOp::Build { target, days: day });
        } else {
            ops.push(WaveOp::Copy {
                from: format!("{prefix}{}", m - 1),
                to: target.clone(),
            });
            ops.push(WaveOp::Add { target, days: day });
        }
    }
    ops
}

/// A scheme's decision procedure, free of I/O.
///
/// ```
/// use wave_index::schemes::{ClusterState, Planner, SchemeConfig, SchemeKind};
/// use wave_index::Day;
///
/// // Table 1: DEL at W = 10, n = 2 deletes day 1 from I1 and adds day 11.
/// let planner = Planner::new(SchemeKind::Del, &SchemeConfig::new(10, 2)).unwrap();
/// let mut state = ClusterState::new(2);
/// state.apply(&planner.start());
/// let plan = planner.plan(&state, Day(11)).unwrap();
/// let ops: Vec<String> = plan.ops().map(ToString::to_string).collect();
/// assert_eq!(ops, ["DeleteFromIndex({1}, I1)", "AddToIndex({11}, I1)"]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planner {
    kind: SchemeKind,
    window: u32,
    fan: usize,
    wata_start: WataStart,
    rata_mode: RataMode,
}

impl Planner {
    /// The planner of `kind` at `cfg`'s window and fan; rejects the
    /// `(W, n)` the scheme does not support.
    pub fn new(kind: SchemeKind, cfg: &SchemeConfig) -> IndexResult<Self> {
        cfg.validate(kind.min_fan())?;
        Ok(Planner {
            kind,
            window: cfg.window,
            fan: cfg.fan,
            wata_start: WataStart::default(),
            rata_mode: RataMode::default(),
        })
    }

    /// Sets WATA*'s start partition.
    pub fn with_wata_start(mut self, start: WataStart) -> Self {
        self.wata_start = start;
        self
    }

    /// Sets RATA*'s ladder-building mode; with two indexes spreading
    /// is impossible and the mode stays [`RataMode::Eager`].
    pub fn with_rata_mode(mut self, mode: RataMode) -> Self {
        self.rata_mode = if self.fan == 2 { RataMode::Eager } else { mode };
        self
    }

    /// The scheme planned.
    pub(crate) fn kind(&self) -> SchemeKind {
        self.kind
    }

    /// Hard or soft windows.
    pub fn window_kind(&self) -> WindowKind {
        match self.kind {
            SchemeKind::WataStar => WindowKind::Soft,
            _ => WindowKind::Hard,
        }
    }

    /// Oldest day whose batch a plan may still read, given that `next`
    /// is the next day to arrive: WATA* only ever builds the new day;
    /// every other scheme reaches back over the window.
    pub fn oldest_needed_day(&self, next: Day) -> Day {
        match self.kind {
            SchemeKind::WataStar => Day(next.0.saturating_sub(1)),
            _ => Day(next.0.saturating_sub(self.window)),
        }
    }

    /// `Start`: index days `1..=W`.
    pub fn start(&self) -> TransitionPlan {
        let (window, fan) = (self.window, self.fan);
        match self.kind {
            SchemeKind::Del | SchemeKind::Reindex | SchemeKind::ReindexPlus => {
                build_clusters(super::common::split_days(1, window, fan))
            }
            SchemeKind::ReindexPlusPlus => reindex_plus_plus::start(window, fan),
            SchemeKind::WataStar => wata::start(window, fan, self.wata_start),
            SchemeKind::RataStar => rata::start(window, fan, self.rata_mode),
        }
    }

    /// `Transition`: absorb `new_day` into `state`, the state after the
    /// previous day.
    pub fn plan(&self, state: &ClusterState, new_day: Day) -> IndexResult<TransitionPlan> {
        let w = self.window;
        let expired = Day(new_day.0.saturating_sub(w));
        match self.kind {
            SchemeKind::Del => del::plan(state, expired, new_day),
            SchemeKind::Reindex => reindex::plan(state, expired, new_day),
            SchemeKind::ReindexPlus => reindex_plus::plan(state, expired, new_day),
            SchemeKind::ReindexPlusPlus => reindex_plus_plus::plan(state, expired, new_day),
            SchemeKind::WataStar => wata::plan(w, state, expired, new_day),
            SchemeKind::RataStar => rata::plan(w, self.rata_mode, state, expired, new_day),
        }
    }
}

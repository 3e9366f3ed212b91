//! The one scheme executor: runs any planner's [`TransitionPlan`]
//! against a volume.
//!
//! Each [`WaveOp`] maps onto the index layer directly — `BuildIndex` to
//! [`ConstituentIndex::build_packed`], a copy to
//! [`ConstituentIndex::clone_shadow`], `AddToIndex` to the
//! [`Updater`] when the target is live and to [`absorb_offline`]
//! otherwise — so every scheme issues its volume calls in the order its
//! plan lists them. Two rules place the rest:
//!
//! * **Live updates prepare ahead of the data.** Every live update of
//!   the plan (see [`Liveness`]) runs [`Updater::prepare`] during
//!   pre-computation — the shadow copy and, for DEL, the deletion of
//!   the `DeleteFromIndex` that precedes it — and [`Updater::apply`] at
//!   its `AddToIndex`. Buffered ingest is the updater's concern.
//! * **Replacements coexist with what they replace.** An index built,
//!   copied or renamed into an occupied slot is staged next to the live
//!   constituent and installed — the old one released — once the plan
//!   moves on to another index or the phase ends.

use std::collections::BTreeSet;

use wave_storage::Volume;

use crate::error::{IndexError, IndexResult};
use crate::index::ConstituentIndex;
use crate::record::{Day, DayArchive};
use crate::update::{PreparedUpdate, Updater};
use crate::wave::WaveIndex;

use super::common::{
    absorb_offline, expect_consecutive, expect_start_archive, fetch, trace_transition, Phases,
};
use super::plan::{slot_index, slot_label, temp_position, ClusterState, Liveness, Planner};
use super::{SchemeConfig, TransitionPlan, TransitionRecord, WaveOp, WaveScheme, WindowKind};

/// A live update prepared during pre-computation.
#[derive(Debug)]
struct Prepared {
    slot: usize,
    delete: BTreeSet<Day>,
    prep: PreparedUpdate,
}

/// A wave index maintained by a [`Planner`].
#[derive(Debug)]
pub struct Scheme {
    cfg: SchemeConfig,
    planner: Planner,
    updater: Updater,
    wave: WaveIndex,
    /// Temporary indexes, in table order (highest rung first).
    temps: Vec<ConstituentIndex>,
    /// A replacement for a live slot, not yet installed.
    staged: Option<(usize, ConstituentIndex)>,
    current: Option<Day>,
}

impl Scheme {
    /// An unstarted scheme executing `planner`'s plans under `cfg`'s
    /// update technique and index tuning.
    pub fn new(cfg: SchemeConfig, planner: Planner) -> Self {
        Scheme {
            cfg,
            planner,
            updater: Updater::new(cfg.technique),
            wave: WaveIndex::with_slots(cfg.fan),
            temps: Vec::new(),
            staged: None,
            current: None,
        }
    }

    /// The time-sets of the executed indexes: what the planner plans
    /// from.
    fn state(&self) -> ClusterState {
        ClusterState {
            slots: (0..self.wave.slot_count())
                .map(|j| {
                    self.wave
                        .slot(j)
                        .map(|idx| idx.days().clone())
                        .unwrap_or_default()
                })
                .collect(),
            temps: self
                .temps
                .iter()
                .map(|t| (t.label().to_string(), t.days().clone()))
                .collect(),
        }
    }

    /// Executes `plan` as the transition to `day`.
    fn run(
        &mut self,
        vol: &mut Volume,
        archive: &DayArchive,
        day: Day,
        plan: &TransitionPlan,
    ) -> IndexResult<TransitionRecord> {
        // Every batch the plan reads must be present before any I/O.
        for op in plan.ops() {
            if let WaveOp::Build { days, .. } | WaveOp::Add { days, .. } = op {
                fetch(archive, days.iter().copied())?;
            }
        }
        let mut phases = Phases::begin(vol);
        let mut prepared = self.prepare(vol, plan)?;
        self.execute(vol, archive, &plan.precomp, &mut prepared)?;
        phases.enter_transition(vol);
        self.execute(vol, archive, &plan.transition, &mut prepared)?;
        phases.enter_post(vol);
        self.execute(vol, archive, &plan.post, &mut prepared)?;
        for label in &plan.empty {
            self.put(
                vol,
                ConstituentIndex::new_empty(label.as_str(), self.cfg.index),
            )?;
        }
        let (precomp, transition, post) = phases.finish(vol);
        self.current = Some(day);
        let rec = TransitionRecord {
            day,
            ops: plan.ops().cloned().collect(),
            constituents: self.wave.snapshot(),
            temps: self
                .temps
                .iter()
                .map(|t| (t.label().to_string(), t.days().iter().copied().collect()))
                .collect(),
            precomp,
            transition,
            post,
        };
        trace_transition(vol, self.planner.kind().name(), &rec);
        Ok(rec)
    }

    /// Pre-computation for the plan's live updates: shadow copies and
    /// eager deletions, none of which needs the new data.
    fn prepare(&mut self, vol: &mut Volume, plan: &TransitionPlan) -> IndexResult<Vec<Prepared>> {
        let mut liveness = Liveness::default();
        let mut delete = BTreeSet::new();
        let mut prepared = Vec::new();
        for op in plan.ops() {
            if !liveness.observe(op) {
                continue;
            }
            match op {
                WaveOp::Delete { days, .. } => delete.extend(days.iter().copied()),
                WaveOp::Add { target, .. } => {
                    let slot = self.slot_of(target)?;
                    let idx = self.wave.slot_mut(slot).ok_or_else(|| missing(target))?;
                    let prep = self.updater.prepare(vol, idx, &delete)?;
                    prepared.push(Prepared {
                        slot,
                        delete: std::mem::take(&mut delete),
                        prep,
                    });
                }
                _ => {}
            }
        }
        Ok(prepared)
    }

    /// Runs one phase's operations.
    fn execute(
        &mut self,
        vol: &mut Volume,
        archive: &DayArchive,
        ops: &[WaveOp],
        prepared: &mut Vec<Prepared>,
    ) -> IndexResult<()> {
        for op in ops {
            if let Some((j, _)) = &self.staged {
                if slot_label(*j) != op.target() {
                    self.install_staged(vol)?;
                }
            }
            match op {
                WaveOp::Build { target, days } => {
                    let batches = fetch(archive, days.iter().copied())?;
                    let idx = ConstituentIndex::build_packed(
                        target.as_str(),
                        self.cfg.index,
                        vol,
                        &batches,
                    )?;
                    self.put(vol, idx)?;
                }
                WaveOp::Copy { from, to } => {
                    let idx = self.index_mut(from)?.clone_shadow(vol, to.as_str())?;
                    self.put(vol, idx)?;
                }
                WaveOp::Rename { from, to } => {
                    let mut idx = self.take(from)?;
                    idx.set_label(to.as_str());
                    self.put(vol, idx)?;
                }
                WaveOp::Add { target, days } => {
                    let batches = fetch(archive, days.iter().copied())?;
                    let live = slot_index(target)
                        .and_then(|j| prepared.iter().position(|p| p.slot == j))
                        .map(|i| prepared.remove(i));
                    match live {
                        Some(Prepared { slot, delete, prep }) => {
                            let idx = self.wave.slot_mut(slot).ok_or_else(|| missing(target))?;
                            self.updater.apply(vol, idx, prep, &delete, &batches)?;
                        }
                        None => {
                            let technique = self.cfg.technique;
                            absorb_offline(vol, self.index_mut(target)?, &batches, technique)?
                        }
                    }
                }
                // Folded into the live update its `AddToIndex` applies.
                WaveOp::Delete { target, .. } => {
                    let j = self.slot_of(target)?;
                    if !prepared.iter().any(|p| p.slot == j) {
                        return Err(IndexError::Corrupt(format!(
                            "DeleteFromIndex on {target} has no live AddToIndex to fold into"
                        )));
                    }
                }
                WaveOp::Drop { target } => self.take(target)?.release(vol)?,
            }
        }
        self.install_staged(vol)
    }

    /// Installs the staged replacement, releasing what it replaces.
    fn install_staged(&mut self, vol: &mut Volume) -> IndexResult<()> {
        if let Some((j, idx)) = self.staged.take() {
            if let Some(old) = self.wave.install(j, idx) {
                old.release(vol)?;
            }
        }
        Ok(())
    }

    /// Places `idx` under its label: into a free slot directly, next to
    /// an occupied one as its staged replacement, or among the temps.
    fn put(&mut self, vol: &mut Volume, idx: ConstituentIndex) -> IndexResult<()> {
        match slot_index(idx.label()) {
            Some(j) if j >= self.wave.slot_count() => Err(missing(idx.label())),
            Some(j) if self.wave.slot(j).is_some() => {
                self.install_staged(vol)?;
                self.staged = Some((j, idx));
                Ok(())
            }
            Some(j) => {
                self.wave.install(j, idx);
                Ok(())
            }
            None if self.temps.iter().any(|t| t.label() == idx.label()) => Err(
                IndexError::Corrupt(format!("temporary {} already exists", idx.label())),
            ),
            None => {
                let at = temp_position(self.temps.iter().map(|t| t.label()), idx.label())
                    .unwrap_or(self.temps.len());
                self.temps.insert(at, idx);
                Ok(())
            }
        }
    }

    /// The index `label` currently names: a staged replacement first,
    /// then the live slot, then a temporary.
    fn index_mut(&mut self, label: &str) -> IndexResult<&mut ConstituentIndex> {
        let found = match slot_index(label) {
            Some(j) => match &mut self.staged {
                Some((s, idx)) if *s == j => Some(idx),
                _ => self.wave.slot_mut(j),
            },
            None => self.temps.iter_mut().find(|t| t.label() == label),
        };
        found.ok_or_else(|| missing(label))
    }

    /// Removes the index `label` names (see [`Scheme::index_mut`]).
    fn take(&mut self, label: &str) -> IndexResult<ConstituentIndex> {
        let found = match slot_index(label) {
            Some(j) => match self.staged.take() {
                Some((s, idx)) if s == j => Some(idx),
                other => {
                    self.staged = other;
                    self.wave.take(j)
                }
            },
            None => self
                .temps
                .iter()
                .position(|t| t.label() == label)
                .map(|i| self.temps.remove(i)),
        };
        found.ok_or_else(|| missing(label))
    }

    fn slot_of(&self, label: &str) -> IndexResult<usize> {
        slot_index(label)
            .filter(|j| *j < self.wave.slot_count())
            .ok_or_else(|| missing(label))
    }
}

fn missing(label: &str) -> IndexError {
    IndexError::Corrupt(format!("plan names no index {label}"))
}

impl WaveScheme for Scheme {
    fn name(&self) -> &'static str {
        self.planner.kind().name()
    }

    fn config(&self) -> &SchemeConfig {
        &self.cfg
    }

    fn window_kind(&self) -> WindowKind {
        self.planner.window_kind()
    }

    fn start(&mut self, vol: &mut Volume, archive: &DayArchive) -> IndexResult<TransitionRecord> {
        expect_start_archive(archive, self.cfg.window)?;
        let plan = self.planner.start();
        self.run(vol, archive, Day(self.cfg.window), &plan)
    }

    fn transition(
        &mut self,
        vol: &mut Volume,
        archive: &DayArchive,
        new_day: Day,
    ) -> IndexResult<TransitionRecord> {
        expect_consecutive(self.current, new_day)?;
        let plan = self.planner.plan(&self.state(), new_day)?;
        self.run(vol, archive, new_day, &plan)
    }

    fn wave(&self) -> &WaveIndex {
        &self.wave
    }

    fn current_day(&self) -> Option<Day> {
        self.current
    }

    fn temp_days(&self) -> usize {
        self.temps.iter().map(ConstituentIndex::len_days).sum()
    }

    fn temp_blocks(&self) -> u64 {
        self.temps.iter().map(ConstituentIndex::blocks).sum()
    }

    fn oldest_needed_day(&self, next: Day) -> Day {
        self.planner.oldest_needed_day(next)
    }

    fn release(&mut self, vol: &mut Volume) -> IndexResult<()> {
        // Lowest rung first, then the wave.
        while let Some(idx) = self.temps.pop() {
            idx.release(vol)?;
        }
        if let Some((_, idx)) = self.staged.take() {
            idx.release(vol)?;
        }
        self.wave.release_all(vol)
    }
}

//! The six wave-index maintenance algorithms (Sections 3-4, Appendix
//! A of the paper), plus an offline-optimal WATA comparator.
//!
//! Each scheme is a pure [`Planner`]: from the time-sets of its indexes
//! ([`ClusterState`]) and the arriving day it derives the day's
//! [`TransitionPlan`] of [`WaveOp`]s in the paper's Appendix A notation
//! (`del`, `reindex`, … hold each scheme's rules). One executor,
//! [`Scheme`], runs every plan against a volume and implements
//! [`WaveScheme`]: it is `start`ed with the first `W` days and then fed
//! one `transition` per day. Queries go through its [`WaveIndex`]. Each
//! transition yields a [`TransitionRecord`] with the operations
//! executed (for the paper's Tables 1-7 worked examples) and the I/O
//! charged to each phase:
//!
//! * **pre-computation** — work that does not require the new day's
//!   data (shadow copies, deletions of expired entries, temp-index
//!   ladders for future days);
//! * **transition** — work on the critical path between the new data
//!   arriving and it being queryable;
//! * **post-work** — work that needs the new data but happens after
//!   it is already queryable (e.g. REINDEX++ updating the next temp).
//!
//! The paper's *pre-transition time* corresponds to pre-computation +
//! post-work; its *transition time* is the middle phase alone.

pub mod budgeted;
mod common;
pub mod del;
mod engine;
pub mod offline;
mod plan;
pub mod rata;
pub mod reindex;
pub mod reindex_plus;
pub mod reindex_plus_plus;
#[cfg(test)]
pub(crate) mod testutil;
pub mod wata;

use std::fmt;

use wave_storage::{StatsDelta, Volume};

use crate::error::{IndexError, IndexResult};
use crate::index::IndexConfig;
use crate::record::{Day, DayArchive};
use crate::update::UpdateTechnique;
use crate::wave::WaveIndex;

pub use engine::Scheme;
pub use plan::{slot_index, ClusterState, Liveness, Planner, TransitionPlan};
pub use rata::RataMode;
pub use wata::WataStart;

/// Whether a scheme indexes exactly the window or may lag behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Exactly the most recent `W` days are indexed.
    Hard,
    /// A superset of the window may be indexed (lazy deletion).
    Soft,
}

/// Configuration shared by every scheme.
#[derive(Debug, Clone, Copy)]
pub struct SchemeConfig {
    /// Window size `W` in days.
    pub window: u32,
    /// Number of constituent indexes `n`.
    pub fan: usize,
    /// Update technique for constituent-index mutations.
    pub technique: UpdateTechnique,
    /// Constituent-index tuning (directory kind, CONTIGUOUS policy).
    pub index: IndexConfig,
}

impl SchemeConfig {
    /// Config for window `W` over `n` indexes with default technique
    /// (simple shadow) and index tuning.
    pub fn new(window: u32, fan: usize) -> Self {
        SchemeConfig {
            window,
            fan,
            technique: UpdateTechnique::default(),
            index: IndexConfig::default(),
        }
    }

    /// Sets the update technique.
    pub fn with_technique(mut self, technique: UpdateTechnique) -> Self {
        self.technique = technique;
        self
    }

    /// Sets the constituent-index configuration.
    pub fn with_index(mut self, index: IndexConfig) -> Self {
        self.index = index;
        self
    }

    /// Validates `1 <= n <= W` (schemes with stricter needs check
    /// further; WATA-family requires `n >= 2`).
    pub(crate) fn validate(&self, min_fan: usize) -> IndexResult<()> {
        if self.window == 0 {
            return Err(IndexError::BadConfig {
                window: self.window,
                fan: self.fan as u32,
                reason: "window must be at least one day",
            });
        }
        if self.fan < min_fan {
            return Err(IndexError::BadConfig {
                window: self.window,
                fan: self.fan as u32,
                reason: if min_fan >= 2 {
                    "WATA-family schemes need at least two constituent indexes"
                } else {
                    "at least one constituent index is required"
                },
            });
        }
        if self.fan as u32 > self.window {
            return Err(IndexError::BadConfig {
                window: self.window,
                fan: self.fan as u32,
                reason: "cannot have more constituent indexes than days",
            });
        }
        Ok(())
    }
}

/// One operation executed during a transition, mirroring the notation
/// of the paper's worked examples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaveOp {
    /// `I ← BuildIndex(days)`.
    Build {
        /// Label of the index built.
        target: String,
        /// Days indexed.
        days: Vec<Day>,
    },
    /// `AddToIndex(days, I)`.
    Add {
        /// Label of the index updated.
        target: String,
        /// Days whose batches were added.
        days: Vec<Day>,
    },
    /// `DeleteFromIndex(days, I)`.
    Delete {
        /// Label of the index updated.
        target: String,
        /// Days whose entries were deleted.
        days: Vec<Day>,
    },
    /// `DropIndex(I)`.
    Drop {
        /// Label of the index discarded.
        target: String,
    },
    /// `to ← from` (a copy).
    Copy {
        /// Source label.
        from: String,
        /// Destination label.
        to: String,
    },
    /// `Rename from as to` (a move; no I/O).
    Rename {
        /// Old label.
        from: String,
        /// New label.
        to: String,
    },
}

impl WaveOp {
    /// Label of the index the operation writes (or drops).
    pub fn target(&self) -> &str {
        match self {
            WaveOp::Build { target, .. }
            | WaveOp::Add { target, .. }
            | WaveOp::Delete { target, .. }
            | WaveOp::Drop { target } => target,
            WaveOp::Copy { to, .. } | WaveOp::Rename { to, .. } => to,
        }
    }
}

impl fmt::Display for WaveOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let days_str = |days: &[Day]| {
            days.iter()
                .map(|d| d.0.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        match self {
            WaveOp::Build { target, days } => {
                write!(f, "{target} <- BuildIndex({{{}}})", days_str(days))
            }
            WaveOp::Add { target, days } => {
                write!(f, "AddToIndex({{{}}}, {target})", days_str(days))
            }
            WaveOp::Delete { target, days } => {
                write!(f, "DeleteFromIndex({{{}}}, {target})", days_str(days))
            }
            WaveOp::Drop { target } => write!(f, "DropIndex({target})"),
            WaveOp::Copy { from, to } => write!(f, "{to} <- {from}"),
            WaveOp::Rename { from, to } => write!(f, "Rename {from} as {to}"),
        }
    }
}

/// What one `start` or `transition` call did and what it cost.
#[derive(Debug)]
pub struct TransitionRecord {
    /// Day that triggered the transition (the newest day afterwards).
    pub day: Day,
    /// Operations executed, in order.
    pub ops: Vec<WaveOp>,
    /// `(label, time-set)` of each constituent after the transition.
    pub constituents: Vec<(String, Vec<Day>)>,
    /// `(label, time-set)` of each temporary index after the
    /// transition.
    pub temps: Vec<(String, Vec<Day>)>,
    /// I/O charged to pre-computation (before the new data arrived).
    pub precomp: StatsDelta,
    /// I/O charged to the critical transition path.
    pub transition: StatsDelta,
    /// I/O charged to post-work (new data already queryable).
    pub post: StatsDelta,
}

impl TransitionRecord {
    /// The paper's *pre-transition time*: pre-computation + post-work.
    pub fn pre_transition_seconds(&self) -> f64 {
        self.precomp.sim_seconds + self.post.sim_seconds
    }

    /// The paper's *transition time*.
    pub fn transition_seconds(&self) -> f64 {
        self.transition.sim_seconds
    }

    /// All maintenance I/O time of the day.
    pub fn total_seconds(&self) -> f64 {
        self.pre_transition_seconds() + self.transition_seconds()
    }
}

/// A wave-index maintenance algorithm.
pub trait WaveScheme {
    /// Scheme name as the paper spells it (e.g. `"REINDEX+"`).
    fn name(&self) -> &'static str;

    /// The configuration in force.
    fn config(&self) -> &SchemeConfig;

    /// Hard or soft windows.
    fn window_kind(&self) -> WindowKind;

    /// Indexes the first `W` days (`Start` in Appendix A). The archive
    /// must contain batches for days `1..=W`.
    fn start(&mut self, vol: &mut Volume, archive: &DayArchive) -> IndexResult<TransitionRecord>;

    /// Absorbs `new_day` (`Transition` in Appendix A). Days must
    /// arrive consecutively; the archive must contain every batch the
    /// scheme may still rebuild from.
    fn transition(
        &mut self,
        vol: &mut Volume,
        archive: &DayArchive,
        new_day: Day,
    ) -> IndexResult<TransitionRecord>;

    /// The queryable wave index Θ.
    fn wave(&self) -> &WaveIndex;

    /// Newest indexed day, or `None` before `start`.
    fn current_day(&self) -> Option<Day>;

    /// Days currently stored in temporary (non-queryable) indexes.
    fn temp_days(&self) -> usize;

    /// Blocks used by temporary indexes.
    fn temp_blocks(&self) -> u64;

    /// Oldest day whose batch the scheme may still need, given that
    /// `next` is the next day to arrive. The driver prunes its archive
    /// below this.
    fn oldest_needed_day(&self, next: Day) -> Day;

    /// Releases all storage (constituents and temps).
    fn release(&mut self, vol: &mut Volume) -> IndexResult<()>;
}

/// Scheme selector for drivers and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// Incremental delete + insert.
    Del,
    /// Rebuild the expiring cluster daily.
    Reindex,
    /// REINDEX with one temp index.
    ReindexPlus,
    /// REINDEX with a temp ladder (fast transitions).
    ReindexPlusPlus,
    /// Wait-and-throw-away (soft windows).
    WataStar,
    /// WATA with temps simulating hard windows.
    RataStar,
}

impl SchemeKind {
    /// All six schemes, in the paper's order.
    pub const ALL: [SchemeKind; 6] = [
        SchemeKind::Del,
        SchemeKind::Reindex,
        SchemeKind::ReindexPlus,
        SchemeKind::ReindexPlusPlus,
        SchemeKind::WataStar,
        SchemeKind::RataStar,
    ];

    /// Paper spelling of the scheme name.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::Del => "DEL",
            SchemeKind::Reindex => "REINDEX",
            SchemeKind::ReindexPlus => "REINDEX+",
            SchemeKind::ReindexPlusPlus => "REINDEX++",
            SchemeKind::WataStar => "WATA*",
            SchemeKind::RataStar => "RATA*",
        }
    }

    /// Minimum number of constituent indexes the scheme supports.
    pub fn min_fan(&self) -> usize {
        match self {
            SchemeKind::WataStar | SchemeKind::RataStar => 2,
            _ => 1,
        }
    }

    /// Instantiates the scheme.
    ///
    /// ```
    /// use wave_index::schemes::{SchemeConfig, SchemeKind};
    ///
    /// let scheme = SchemeKind::Reindex.build(SchemeConfig::new(7, 2)).unwrap();
    /// assert_eq!(scheme.name(), "REINDEX");
    /// // WATA-family schemes need at least two constituents.
    /// assert!(SchemeKind::WataStar.build(SchemeConfig::new(7, 1)).is_err());
    /// ```
    pub fn build(&self, cfg: SchemeConfig) -> IndexResult<Box<dyn WaveScheme>> {
        Ok(Box::new(Scheme::new(cfg, Planner::new(*self, &cfg)?)))
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

//! # wave-analytic
//!
//! The analytic cost model of Section 5 of *Wave-Indices: Indexing
//! Evolving Databases* (Shivakumar & Garcia-Molina, SIGMOD '97).
//!
//! The paper evaluates its six maintenance schemes by deriving each
//! scheme's daily operation mix symbolically and pricing it with
//! measured parameters (Table 12). This crate does the same
//! mechanically:
//!
//! * [`model`] runs each scheme's own planner from `wave-index` — the
//!   plans its executor runs against a volume — sizes every plan's
//!   operations in *days of data*, and prices them under the three
//!   update techniques of Section 2.1, yielding every Section 5
//!   measure (space, query response, transition / pre-transition time,
//!   total daily work);
//! * [`params`] holds the Table 12 presets (SCAM, WSE, TPC-D);
//! * [`figures`] sweeps the model to regenerate Figures 3-10;
//! * [`tables`] renders numeric instantiations of Tables 8-12.
//!
//! There is no second copy of any scheme here: the model prices the
//! same plans the engine executes, and this crate's integration tests
//! check the executed indexes against the planners' states.

pub mod figures;
pub mod model;
pub mod params;
pub mod tables;

pub use figures::{recommendations, Figure, Recommendations, Series};
pub use model::{evaluate, trace_scheme, DayTrace, Evaluation, Maintenance, Op};
pub use params::{IndexFan, Params};

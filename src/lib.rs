//! # wave-indices
//!
//! Facade crate re-exporting the whole workspace: a from-scratch Rust
//! implementation of *"Wave-Indices: Indexing Evolving Databases"*
//! (Shivakumar & Garcia-Molina, SIGMOD 1997).
//!
//! A wave index maintains fast access to a sliding window of `W` days
//! of records by partitioning them across `n` conventional indexes.
//! Six maintenance algorithms (DEL, REINDEX, REINDEX+, REINDEX++,
//! WATA*, RATA*) trade daily maintenance work, query response time,
//! storage, and code complexity against each other; see the paper and
//! DESIGN.md for the full map.
//!
//! * [`index`] (crate `wave-index`) — the index structures, the six
//!   schemes, the driver, and verification oracles.
//! * [`storage`] (crate `wave-storage`) — the simulated disk with the
//!   paper's seek/transfer cost model, plus a real file-backed store.
//! * [`analytic`] (crate `wave-analytic`) — the Section 5 cost model
//!   and the Table 12 case-study parameters.
//! * [`workloads`] (crate `wave-workloads`) — Zipfian articles,
//!   Usenet volume seasonality, and the TPC-D `LINEITEM`/Q1 workload.
//! * [`obs`] (crate `wave-obs`) — the dependency-free tracing and
//!   metrics layer every other crate reports into (spans, counters,
//!   gauges, log2 histograms, JSONL traces).
//!
//! ```
//! use wave_indices::prelude::*;
//!
//! // A 7-day window over 3 constituent indexes, maintained lazily.
//! let mut vol = Volume::default();
//! let mut scheme = SchemeKind::WataStar.build(SchemeConfig::new(7, 3)).unwrap();
//!
//! let mut archive = DayArchive::new();
//! for day in 1..=7 {
//!     archive.insert(DayBatch::new(
//!         Day(day),
//!         vec![Record::with_values(RecordId(day as u64), [SearchValue::from("rust")])],
//!     ));
//! }
//! scheme.start(&mut vol, &archive).unwrap();
//! let hits = scheme.wave().index_probe(&mut vol, &SearchValue::from("rust")).unwrap();
//! assert_eq!(hits.entries.len(), 7);
//! ```

pub use wave_analytic as analytic;
pub use wave_index as index;
pub use wave_obs as obs;
pub use wave_storage as storage;
pub use wave_workloads as workloads;

/// One-line import for applications.
pub mod prelude {
    pub use wave_index::prelude::*;
    pub use wave_index::{ContiguousConfig, DirectoryKind, Entry, TimeRange};
}

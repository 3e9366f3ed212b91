//! # wave-index
//!
//! A from-scratch implementation of **wave indices** — the
//! sliding-window index maintenance schemes of Shivakumar &
//! Garcia-Molina, *"Wave-Indices: Indexing Evolving Databases"*
//! (SIGMOD 1997).
//!
//! A wave index gives fast access to the records of the last `W` days
//! by partitioning them across `n` conventional constituent indexes.
//! Every day a new batch arrives and the oldest day expires; the six
//! maintenance algorithms differ in how they absorb that churn:
//!
//! | scheme | window | daily work | idea |
//! |---|---|---|---|
//! | [DEL](schemes::del) | hard | delete 1 day + add 1 day | incremental delete/insert |
//! | [REINDEX](schemes::reindex) | hard | rebuild one cluster | `BuildIndex` from scratch, always packed |
//! | [REINDEX+](schemes::reindex_plus) | hard | ~½ cluster rebuild | temp index avoids recomputation |
//! | [REINDEX++](schemes::reindex_plus_plus) | hard | 1 day add | pre-built temp ladder, fast transitions |
//! | [WATA*](schemes::wata) | soft | 1 day add, bulk drop | wait-and-throw-away lazy deletion |
//! | [RATA*](schemes::rata) | hard | 1 day add + temp swap | WATA with temps simulating deletion |
//!
//! Each scheme is a pure [`schemes::Planner`] over day sets; one
//! executor, [`schemes::Scheme`], runs every scheme's plans. Every
//! mutation runs under one of three update techniques
//! ([`UpdateTechnique`]): in-place, simple shadow, or packed shadow.
//!
//! ```
//! use wave_index::prelude::*;
//!
//! let mut vol = Volume::default();
//! let mut scheme = SchemeKind::WataStar.build(SchemeConfig::new(7, 3)).unwrap();
//!
//! // Index the first seven days.
//! let mut archive = DayArchive::new();
//! for day in 1..=7 {
//!     archive.insert(DayBatch::new(
//!         Day(day),
//!         vec![Record::with_values(
//!             RecordId(day as u64),
//!             [SearchValue::from("hello")],
//!         )],
//!     ));
//! }
//! scheme.start(&mut vol, &archive).unwrap();
//!
//! // Day 8 arrives; the window slides.
//! archive.insert(DayBatch::new(Day(8), vec![]));
//! scheme.transition(&mut vol, &archive, Day(8)).unwrap();
//!
//! let hits = scheme
//!     .wave()
//!     .index_probe(&mut vol, &SearchValue::from("hello"))
//!     .unwrap();
//! assert_eq!(hits.entries.len(), 7);
//! ```

#![deny(missing_docs)]

pub mod contiguous;
pub mod directory;
pub mod driver;
pub mod entry;
pub mod error;
pub mod filter;
pub mod index;
pub mod ingest;
pub mod parallel;
pub mod persist;
pub mod query;
pub mod record;
pub mod recovery;
pub mod schemes;
pub mod server;
pub mod update;
pub mod verify;
pub mod wave;

pub use contiguous::ContiguousConfig;
pub use directory::{BucketRef, Directory, DirectoryKind};
pub use entry::{Entry, ENTRY_BYTES};
pub use error::{IndexError, IndexResult};
pub use filter::{FilterConfig, MembershipFilter};
pub use index::{ConstituentIndex, IndexConfig, ProbeOutcome};
pub use ingest::{IngestBuffer, IngestConfig};
pub use persist::{
    commit_wave, load_committed, CommitReport, FilterRef, IngestRef, LoadedWave, Manifest,
    ManifestEntry, MANIFEST_NAME,
};
pub use query::TimeRange;
pub use record::{Day, DayArchive, DayBatch, Record, RecordId, SearchValue};
pub use recovery::{fsck, recover, FsckReport, RecoverReport};
pub use server::{
    FaultConfig, PartialAnswer, ServerBatchQuery, ServerConfig, ServerQuery, WaveServer,
};
pub use update::{UpdateTechnique, Updater};
pub use wave::{QueryResult, WaveIndex};

/// Everything needed to drive a wave index, importable in one line.
pub mod prelude {
    pub use crate::driver::{DayReport, Driver, DriverConfig, QueryLoad};
    pub use crate::filter::FilterConfig;
    pub use crate::index::IndexConfig;
    pub use crate::ingest::IngestConfig;
    pub use crate::query::TimeRange;
    pub use crate::record::{Day, DayArchive, DayBatch, Record, RecordId, SearchValue};
    pub use crate::schemes::{SchemeConfig, SchemeKind, TransitionRecord, WaveScheme, WindowKind};
    pub use crate::update::UpdateTechnique;
    pub use crate::wave::WaveIndex;
    pub use wave_storage::{DiskConfig, Volume};
}

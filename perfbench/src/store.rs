//! An [`IndexStore`] that counts and times what the persistence layer
//! hands to a real [`FileStore`].

use std::time::Instant;

use wave_storage::{FileStore, IndexStore, StorageResult};

use crate::stats::Samples;

/// Wraps a [`FileStore`]: bytes are always counted (they feed
/// `write_amp`); call times are kept only when `timed` is set.
pub struct TimedStore {
    inner: FileStore,
    timed: bool,
    pub puts: u64,
    pub put_bytes: u64,
    /// Bytes of ingest-log sidecars (`.ing`) among `put_bytes`.
    pub ingest_log_bytes: u64,
    pub put_ms: Samples,
    pub get_ms: Samples,
    /// Wall time spent inside the wrapped store, all calls.
    pub busy_ms: f64,
}

impl TimedStore {
    pub fn new(inner: FileStore, timed: bool) -> Self {
        TimedStore {
            inner,
            timed,
            puts: 0,
            put_bytes: 0,
            ingest_log_bytes: 0,
            put_ms: Samples::default(),
            get_ms: Samples::default(),
            busy_ms: 0.0,
        }
    }

    fn time<T>(&mut self, f: impl FnOnce(&mut FileStore) -> T) -> (T, f64) {
        if !self.timed {
            return (f(&mut self.inner), 0.0);
        }
        let t = Instant::now();
        let out = f(&mut self.inner);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.busy_ms += ms;
        (out, ms)
    }
}

impl IndexStore for TimedStore {
    fn put(&mut self, name: &str, contents: &[u8]) -> StorageResult<()> {
        self.puts += 1;
        self.put_bytes += contents.len() as u64;
        if name.ends_with(".ing") {
            self.ingest_log_bytes += contents.len() as u64;
        }
        let (out, ms) = self.time(|s| s.put(name, contents));
        if self.timed {
            self.put_ms.push(ms);
        }
        out
    }

    fn get(&mut self, name: &str) -> StorageResult<Option<Vec<u8>>> {
        let (out, ms) = self.time(|s| s.get(name));
        if self.timed {
            self.get_ms.push(ms);
        }
        out
    }

    fn remove(&mut self, name: &str) -> StorageResult<()> {
        self.time(|s| s.remove(name)).0
    }

    fn rename(&mut self, from: &str, to: &str) -> StorageResult<()> {
        self.time(|s| s.rename(from, to)).0
    }

    fn list(&mut self) -> StorageResult<Vec<String>> {
        self.time(|s| s.list()).0
    }
}

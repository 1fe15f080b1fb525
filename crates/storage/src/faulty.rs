//! Test support: a device that counts its calls per operation, makes chosen
//! ones fail or panic, and can die at the k-th.

use crate::backend::{LogHandle, StorageBackend};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use vstore_types::sync::lock_unpoisoned;
use vstore_types::{Result, VStoreError};

/// What a faulted call does in place of reaching the device: hands back the
/// error to fail with, or panics.
pub(crate) type Fault = fn() -> VStoreError;

/// The error of a call that was made to fail.
pub(crate) fn injected() -> VStoreError {
    VStoreError::Io(std::io::Error::other("injected"))
}

/// What the devices sharing it have been asked so far, and what they are to
/// do about it.
#[derive(Debug, Default)]
pub(crate) struct Script {
    /// Calls so far, by operation name (a test clears it to count afresh).
    pub(crate) calls: BTreeMap<&'static str, u64>,
    /// Calls still to let through before the cut: that call fails, and so
    /// does every call after it (the process is gone).
    pub(crate) cut_in: Option<u64>,
    /// `(operation, log name)` pairs that meet a fault.
    pub(crate) faults: Vec<(&'static str, String, Fault)>,
}

/// A device that follows a [`Script`], shared with its clones, the log
/// handles it opens and any device built on the same `script`.
#[derive(Debug, Clone)]
pub(crate) struct FaultyDevice {
    pub(crate) inner: Arc<dyn StorageBackend>,
    pub(crate) script: Arc<Mutex<Script>>,
}

impl FaultyDevice {
    pub(crate) fn over(inner: Arc<dyn StorageBackend>) -> FaultyDevice {
        FaultyDevice {
            inner,
            script: Arc::default(),
        }
    }

    /// Count the call, then let it through to the device or not.
    fn enter(&self, op: &'static str, name: &str) -> Result<&dyn StorageBackend> {
        let mut script = lock_unpoisoned(&self.script);
        *script.calls.entry(op).or_default() += 1;
        match &mut script.cut_in {
            Some(0) => return Err(injected()),
            Some(left) => *left -= 1,
            None => {}
        }
        match script.faults.iter().find(|f| f.0 == op && f.1 == name) {
            Some((_, _, fault)) => Err(fault()),
            None => Ok(self.inner.as_ref()),
        }
    }
}

#[derive(Debug)]
struct FaultyLog {
    inner: Box<dyn LogHandle>,
    device: FaultyDevice,
}

impl LogHandle for FaultyLog {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.device.enter("append", "")?;
        self.inner.append(data)
    }
    fn sync(&mut self) -> Result<()> {
        self.device.enter("sync", "")?;
        self.inner.sync()
    }
}

impl StorageBackend for FaultyDevice {
    fn open(&self, name: &str, truncate: bool) -> Result<Box<dyn LogHandle>> {
        let inner = self.enter("open", name)?.open(name, truncate)?;
        let device = self.clone();
        Ok(Box::new(FaultyLog { inner, device }))
    }
    fn read_at(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.enter("read_at", name)?.read_at(name, offset, len)
    }
    fn read_all(&self, name: &str) -> Result<Option<Vec<u8>>> {
        self.enter("read_all", name)?.read_all(name)
    }
    fn write_all(&self, name: &str, data: &[u8]) -> Result<()> {
        self.enter("write_all", name)?.write_all(name, data)
    }
    fn remove(&self, name: &str) -> Result<()> {
        self.enter("remove", name)?.remove(name)
    }
    fn len(&self, name: &str) -> Result<Option<u64>> {
        self.enter("len", name)?.len(name)
    }
    fn list(&self, dir: &str) -> Result<Vec<String>> {
        self.enter("list", dir)?.list(dir)
    }
    fn describe(&self) -> String {
        self.inner.describe()
    }
}

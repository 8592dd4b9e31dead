//! Typed error taxonomy of the durability subsystem.
//!
//! Every failure the write-ahead log, checkpointer or recovery can hit is
//! classified into a [`WalErrorKind`] and carries the operation
//! ([`WalOp`]), the path involved and the underlying OS error. The log
//! retries nothing: its first failed append, segment creation or fsync
//! poisons it, whatever the kind. The kind tells the operator what to fix
//! before the reopen — ENOSPC poisons as out of space.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Result alias used throughout the crate.
pub type WalResult<T> = std::result::Result<T, WalError>;

/// The operation that failed, kept for context in messages and logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// Creating or opening a log segment / snapshot / lock file.
    Create,
    /// Appending a frame to a log segment.
    Append,
    /// Fsyncing a file.
    Fsync,
    /// Fsyncing the durable directory itself.
    DirSync,
    /// Renaming a snapshot into place.
    Rename,
    /// Deleting a pruned segment or superseded snapshot.
    Remove,
    /// Reading a segment or snapshot during recovery.
    Read,
    /// Taking the advisory directory lock.
    Lock,
    /// Rolling a partial append back to the last frame boundary.
    Rollback,
}

impl WalOp {
    fn label(self) -> &'static str {
        match self {
            WalOp::Create => "create",
            WalOp::Append => "append",
            WalOp::Fsync => "fsync",
            WalOp::DirSync => "dir-sync",
            WalOp::Rename => "rename",
            WalOp::Remove => "remove",
            WalOp::Read => "read",
            WalOp::Lock => "lock",
            WalOp::Rollback => "rollback",
        }
    }
}

/// Classification every durability failure falls into. The first three are
/// I/O classes derived from the OS error; the rest are logical states of
/// the subsystem itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalErrorKind {
    /// A failure that might not recur (interrupted syscall, timeout,
    /// resource temporarily busy). It still poisons the log: after a failed
    /// fsync the kernel may have dropped the dirty pages and cleared the
    /// error, so a retry could report success for data that is gone. A
    /// reopen is likely to succeed.
    Transient,
    /// The device or quota is full (`ENOSPC`/`EDQUOT`). Poisons the log as
    /// out of space; free space (or set `checkpoint_every_bytes` so the
    /// log stays bounded), then reopen.
    OutOfSpace,
    /// An I/O failure with no reason to believe it would not recur (media
    /// error, bad file descriptor, permission change).
    Fatal,
    /// The log was already poisoned by an earlier failure; nothing can be
    /// made durable anymore. Carries no fresh OS error.
    Poisoned,
    /// On-disk state that exists but does not decode (a corrupt snapshot
    /// whose covering segments are pruned).
    Corrupt,
    /// The durable directory is locked by another live database handle.
    Locked,
}

impl WalErrorKind {
    fn label(self) -> &'static str {
        match self {
            WalErrorKind::Transient => "transient",
            WalErrorKind::OutOfSpace => "out of space",
            WalErrorKind::Fatal => "fatal",
            WalErrorKind::Poisoned => "poisoned",
            WalErrorKind::Corrupt => "corrupt",
            WalErrorKind::Locked => "locked",
        }
    }
}

/// Classifies an OS error. Conservative: anything not positively known to
/// be transient or out of space is fatal.
pub fn classify(kind: io::ErrorKind) -> WalErrorKind {
    match kind {
        io::ErrorKind::Interrupted
        | io::ErrorKind::TimedOut
        | io::ErrorKind::WouldBlock
        | io::ErrorKind::ResourceBusy => WalErrorKind::Transient,
        io::ErrorKind::StorageFull | io::ErrorKind::QuotaExceeded => WalErrorKind::OutOfSpace,
        _ => WalErrorKind::Fatal,
    }
}

/// A durability failure: what was attempted, on which path, how it is
/// classified, and the OS error underneath (when there is one).
#[derive(Debug)]
pub struct WalError {
    /// Classification.
    pub kind: WalErrorKind,
    /// The operation that failed.
    pub op: WalOp,
    /// The file or directory involved, when known.
    pub path: Option<PathBuf>,
    /// The underlying OS error, preserved for `source()` chains.
    pub source: Option<io::Error>,
    /// Extra human context (corruption details, lock holders).
    pub detail: Option<String>,
}

impl WalError {
    /// Wraps an OS error from `op` on `path`, classifying it.
    pub fn io(op: WalOp, path: impl Into<PathBuf>, source: io::Error) -> Self {
        WalError {
            kind: classify(source.kind()),
            op,
            path: Some(path.into()),
            source: Some(source),
            detail: None,
        }
    }

    /// The poisoned-log error every append and durability wait returns
    /// once the log can no longer vouch for what is on the device.
    pub fn poisoned() -> Self {
        WalError {
            kind: WalErrorKind::Poisoned,
            op: WalOp::Append,
            path: None,
            source: None,
            detail: Some(
                "write-ahead log poisoned by an earlier I/O failure; \
                 commits can no longer be made durable"
                    .to_string(),
            ),
        }
    }

    /// On-disk state that exists but does not decode.
    pub fn corrupt(path: impl Into<PathBuf>, detail: impl Into<String>) -> Self {
        WalError {
            kind: WalErrorKind::Corrupt,
            op: WalOp::Read,
            path: Some(path.into()),
            source: None,
            detail: Some(detail.into()),
        }
    }

    /// The durable directory is held by another live handle.
    pub fn locked(path: impl Into<PathBuf>) -> Self {
        WalError {
            kind: WalErrorKind::Locked,
            op: WalOp::Lock,
            path: Some(path.into()),
            source: None,
            detail: Some(
                "durable directory is already open in another database handle or process"
                    .to_string(),
            ),
        }
    }

    /// Adds human context to an existing error.
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = Some(detail.into());
        self
    }
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wal {} failed ({})", self.op.label(), self.kind.label())?;
        if let Some(path) = &self.path {
            write!(f, " at {}", path.display())?;
        }
        match (&self.source, &self.detail) {
            (_, Some(detail)) => write!(f, ": {detail}")?,
            (Some(source), None) => write!(f, ": {source}")?,
            (None, None) => {}
        }
        Ok(())
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source
            .as_ref()
            .map(|e| e as &(dyn std::error::Error + 'static))
    }
}

/// Helper: maps an `io::Result` into the taxonomy with op/path context.
pub(crate) fn ctx<T>(result: io::Result<T>, op: WalOp, path: &Path) -> WalResult<T> {
    result.map_err(|e| WalError::io(op, path, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_taxonomy() {
        assert_eq!(
            classify(io::ErrorKind::Interrupted),
            WalErrorKind::Transient
        );
        assert_eq!(classify(io::ErrorKind::TimedOut), WalErrorKind::Transient);
        assert_eq!(
            classify(io::ErrorKind::StorageFull),
            WalErrorKind::OutOfSpace
        );
        assert_eq!(
            classify(io::ErrorKind::PermissionDenied),
            WalErrorKind::Fatal
        );
        assert_eq!(classify(io::ErrorKind::Other), WalErrorKind::Fatal);
    }

    #[test]
    fn display_carries_op_path_and_source() {
        let e = WalError::io(
            WalOp::Fsync,
            "/x/segment-1.wal",
            io::Error::new(io::ErrorKind::Interrupted, "boom"),
        );
        let msg = e.to_string();
        assert!(msg.contains("fsync"), "{msg}");
        assert!(msg.contains("transient"), "{msg}");
        assert!(msg.contains("segment-1.wal"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn logical_states_carry_their_own_kinds() {
        assert_eq!(WalError::poisoned().kind, WalErrorKind::Poisoned);
        assert_eq!(
            WalError::corrupt("/x/snap", "bad crc").kind,
            WalErrorKind::Corrupt
        );
        assert_eq!(WalError::locked("/x").kind, WalErrorKind::Locked);
    }
}

//! Database health: `Healthy → Degraded{reason} → Closed`.
//!
//! Degradation is the engine's answer to a poisoned log. The log is
//! fail-stop (see the `ssi-wal` crate docs, § Failure handling): its first
//! failed append, segment creation or fsync degrades the database until it
//! is reopened. Writes fail fast with [`ssi_common::Error::Degraded`];
//! snapshot reads keep serving from the in-memory version store, which is
//! complete and consistent (every version in it committed). The transition
//! is one-way and first-cause-wins: concurrent failures race to a single
//! CAS, so [`DbHealth::Degraded`] always reports the *original* fault, not
//! whichever symptom was observed last.

use std::sync::atomic::{AtomicU8, Ordering};

use ssi_common::DegradedReason;

/// Observable health of a [`crate::Database`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DbHealth {
    /// Normal operation.
    Healthy,
    /// A durability failure made further writes unsafe. One-way; snapshot
    /// reads keep serving.
    Degraded {
        /// The first fault that triggered the transition.
        reason: DegradedReason,
    },
    /// The database was explicitly closed; all new operations fail.
    Closed,
}

const HEALTHY: u8 = 0;
const WAL_POISONED: u8 = 1;
const OUT_OF_SPACE: u8 = 2;
const WAL_LEADER_PANIC: u8 = 3;
const CLOSED: u8 = 4;

/// Stable numeric code of a degradation reason, also used as the `state`
/// payload of [`ssi_obs::EventKind::Health`] trace events (0 = healthy).
pub(crate) fn reason_code(reason: DegradedReason) -> u8 {
    match reason {
        DegradedReason::WalPoisoned => WAL_POISONED,
        DegradedReason::OutOfSpace => OUT_OF_SPACE,
        DegradedReason::WalLeaderPanic => WAL_LEADER_PANIC,
    }
}

fn code_reason(code: u8) -> Option<DegradedReason> {
    match code {
        WAL_POISONED => Some(DegradedReason::WalPoisoned),
        OUT_OF_SPACE => Some(DegradedReason::OutOfSpace),
        WAL_LEADER_PANIC => Some(DegradedReason::WalLeaderPanic),
        _ => None,
    }
}

/// One-word health state machine, shared between the database handle and
/// the commit path.
#[derive(Debug, Default)]
pub(crate) struct HealthCell(AtomicU8);

impl HealthCell {
    /// Current health.
    pub(crate) fn get(&self) -> DbHealth {
        match self.0.load(Ordering::Acquire) {
            HEALTHY => DbHealth::Healthy,
            CLOSED => DbHealth::Closed,
            code => DbHealth::Degraded {
                reason: code_reason(code).expect("valid degraded code"),
            },
        }
    }

    /// `Healthy → Degraded{reason}`; returns true if *this* call made the
    /// transition (the caller then bumps the degraded-transition counter —
    /// losers of the race report nothing, so the counter counts incidents,
    /// not observers).
    pub(crate) fn degrade(&self, reason: DegradedReason) -> bool {
        self.0
            .compare_exchange(
                HEALTHY,
                reason_code(reason),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Terminal transition: any state → `Closed`.
    pub(crate) fn close(&self) {
        self.0.store(CLOSED, Ordering::Release);
    }

    /// The typed error write transactions must fail fast with right now, if
    /// any: `None` while healthy, the degradation otherwise. A closed
    /// database yields [`ssi_common::Error::Closed`], never a degraded
    /// error: closing is an orderly stop, not a fault, and callers racing
    /// [`crate::Database::close`] must be able to tell the two apart.
    pub(crate) fn write_block_error(&self) -> Option<ssi_common::Error> {
        match self.get() {
            DbHealth::Healthy => None,
            DbHealth::Degraded { reason } => Some(ssi_common::Error::Degraded(reason)),
            DbHealth::Closed => Some(ssi_common::Error::Closed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_degrade_wins_and_is_one_way() {
        let cell = HealthCell::default();
        assert_eq!(cell.get(), DbHealth::Healthy);
        assert!(cell.degrade(DegradedReason::OutOfSpace));
        assert!(!cell.degrade(DegradedReason::WalPoisoned));
        assert_eq!(
            cell.get(),
            DbHealth::Degraded {
                reason: DegradedReason::OutOfSpace
            }
        );
        cell.close();
        assert_eq!(cell.get(), DbHealth::Closed);
        assert!(!cell.degrade(DegradedReason::WalPoisoned));
        assert_eq!(cell.get(), DbHealth::Closed);
    }

    #[test]
    fn closed_blocks_writes_with_the_closed_error() {
        let cell = HealthCell::default();
        cell.close();
        assert_eq!(cell.write_block_error(), Some(ssi_common::Error::Closed));
    }
}

//! A name kept for nvpbench.
//!
//! `nvpd` injects no faults. The crash tests build every state a crash
//! can leave (each torn prefix of the journal, each side of an atomic
//! replace) themselves and restart a server on it; see
//! `tests/crash_recovery.rs`.

/// A fault plan with nothing in it. It stays only because nvpbench
/// names `ServiceFaultPlan::none()` when it opens a [`Journal`].
///
/// [`Journal`]: crate::journal::Journal
#[derive(Debug, Clone, Copy)]
pub struct ServiceFaultPlan;

impl ServiceFaultPlan {
    /// The one value. It stays only because nvpbench names it.
    #[must_use]
    pub fn none() -> ServiceFaultPlan {
        ServiceFaultPlan
    }
}

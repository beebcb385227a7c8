//! Graceful-termination flag: `SIGTERM`/`SIGINT` raise a process-wide
//! atomic instead of killing the process, so `corrsketch serve` can
//! drain in-flight requests, join its workers, and exit 0.
//!
//! This is the one place in the workspace that steps outside safe Rust:
//! `std` exposes no signal API, and the workspace is dependency-free by
//! design, so the module declares libc's `signal(2)` itself (libc is
//! already linked by `std` on every supported platform). The handler
//! body is a single atomic store — async-signal-safe by any reading of
//! the rules. On non-Unix targets installation is a no-op and shutdown
//! is driven by the hosting process instead.

use std::sync::atomic::{AtomicBool, Ordering};

static TERMINATE: AtomicBool = AtomicBool::new(false);

/// Has a termination signal been received since [`install`]?
#[must_use]
pub fn termination_requested() -> bool {
    TERMINATE.load(Ordering::SeqCst)
}

/// Raise the flag — what the signal handler does.
fn request_termination() {
    TERMINATE.store(true, Ordering::SeqCst);
}

/// Install the `SIGTERM`/`SIGINT` handler. Idempotent; call once at
/// server start. No-op on non-Unix targets.
pub fn install() {
    #[cfg(unix)]
    imp::install();
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use std::os::raw::c_int;

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;
    const SIG_DFL: usize = 0;

    extern "C" {
        /// POSIX `signal(2)`. The handler argument and return value are
        /// `usize`-encoded function pointers (`SIG_ERR` = `usize::MAX`),
        /// which sidesteps declaring the non-trivial `sighandler_t`.
        fn signal(signum: c_int, handler: usize) -> usize;
    }

    extern "C" fn on_signal(signum: c_int) {
        // First signal: request graceful shutdown. Restoring the
        // default disposition here means a *second* signal terminates
        // immediately — so a slow startup or a wedged drain can still
        // be interrupted with a repeated Ctrl-C instead of SIGKILL.
        // SAFETY: `signal` is async-signal-safe per POSIX.
        unsafe {
            signal(signum, SIG_DFL);
        }
        super::request_termination();
    }

    pub(super) fn install() {
        // SAFETY: `signal` is the POSIX API linked by std; the handler
        // only performs an atomic store, which is async-signal-safe.
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_request_raises_the_flag() {
        // NOTE: the flag is process-global, so this test must not run
        // before tests that assert it is unset — none do.
        install();
        assert!(!termination_requested() || cfg!(not(unix)));
        request_termination();
        assert!(termination_requested());
    }
}

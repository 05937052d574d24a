//! SIGTERM/SIGINT → one atomic flag the accept loop polls.
//!
//! The only thing the handler does is store to a static `AtomicBool` —
//! the canonical async-signal-safe action. The daemon's shutdown watcher
//! polls [`requested`] and wakes the blocking accept, so a signal turns
//! into a graceful drain within one poll interval.
//!
//! This is the one spot in the workspace that needs FFI (registering a
//! handler has no std API), so the crate is `deny(unsafe_code)` with a
//! single narrowly-scoped allow here, rather than `forbid` like its
//! siblings. On non-Unix targets [`install`] is a no-op and shutdown
//! comes from the `{"op":"shutdown"}` request instead.

use std::sync::atomic::{AtomicBool, Ordering};

static TERMINATE: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM or SIGINT has been delivered (after [`install`]).
pub fn requested() -> bool {
    TERMINATE.load(Ordering::SeqCst)
}

/// Test hook: pretend a signal arrived.
pub fn request() {
    TERMINATE.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM/SIGINT handlers (idempotent).
pub fn install() {
    imp::install();
}

#[cfg(unix)]
mod imp {
    use std::sync::atomic::Ordering;
    use std::sync::Once;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    type Handler = extern "C" fn(i32);

    extern "C" {
        // POSIX `signal(2)`, provided by the libc std already links.
        // The return value (previous handler) is a pointer we ignore.
        fn signal(signum: i32, handler: Handler) -> usize;
    }

    extern "C" fn on_terminate(_sig: i32) {
        // Async-signal-safe: a single atomic store, nothing else.
        super::TERMINATE.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            // SAFETY: `signal` matches its POSIX prototype; the handler
            // is an `extern "C" fn(i32)` that only stores an atomic.
            #[allow(unsafe_code)]
            unsafe {
                signal(SIGTERM, on_terminate);
                signal(SIGINT, on_terminate);
            }
        });
    }
}

#[cfg(not(unix))]
mod imp {
    pub(super) fn install() {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_idempotent_and_the_test_hook_sets_the_flag() {
        install();
        install();
        request();
        assert!(requested());
    }
}

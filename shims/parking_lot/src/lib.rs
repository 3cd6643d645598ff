//! Offline stand-in for the [`parking_lot`](https://crates.io/crates/parking_lot)
//! crate.
//!
//! The build environment of this repository has no access to crates.io, so the
//! tiny API slice the workspace relies on — a [`Mutex`] whose `lock()` returns
//! the guard directly — is provided here on top of `std::sync`.  Poisoning is
//! translated into lock acquisition that ignores the poison flag, matching
//! parking_lot's semantics (a panicking thread does not wedge the lock for
//! everyone else).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use std::sync::MutexGuard;

/// A mutual-exclusion lock with the `parking_lot::Mutex` API: `lock()` returns
/// the guard directly (no `Result`) and panicking while holding the lock does
/// not poison it.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn lock_survives_panicking_holder() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // A parking_lot-style mutex must still be usable afterwards.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}

//! Minimal offline shim of [`parking_lot`](https://crates.io/crates/parking_lot):
//! `Mutex` delegating to `std::sync` with parking_lot's non-poisoning,
//! `Result`-free guard API.

#![forbid(unsafe_code)]

use std::sync::{Mutex as StdMutex, MutexGuard};

/// A mutual-exclusion lock whose guard is returned directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

impl<T> Mutex<T> {
    /// Wraps `value` in a new mutex.
    pub fn new(value: T) -> Mutex<T> {
        Mutex(StdMutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

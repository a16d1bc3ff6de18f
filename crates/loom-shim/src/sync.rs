//! Instrumented drop-in replacements for `std::sync` types.
//!
//! Each type wraps its `std` counterpart. Inside an active [`fn@crate::model`]
//! execution every operation is a scheduling point routed through the explorer;
//! outside one everything delegates directly to `std`, so shimmed code behaves
//! identically in production builds.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::LockResult;
use std::time::Duration;

use crate::rt;

pub mod atomic;

/// Instrumented `Arc`: clone, drop, [`Arc::try_unwrap`] and [`Arc::get_mut`] are
/// scheduling points, which is what lets models explore reader-pin vs.
/// buffer-reuse races.
pub struct Arc<T: ?Sized> {
    inner: Option<std::sync::Arc<T>>,
}

impl<T> Arc<T> {
    /// Wraps `value` in a new reference-counted allocation.
    pub fn new(value: T) -> Arc<T> {
        Arc { inner: Some(std::sync::Arc::new(value)) }
    }

    /// Returns the inner value iff this is the sole strong reference, exactly
    /// like `std::sync::Arc::try_unwrap` (a scheduling point under a model).
    pub fn try_unwrap(mut this: Arc<T>) -> Result<T, Arc<T>> {
        rt::point(rt::PointKind::Op("arc.try_unwrap"));
        let inner = this.inner.take().expect("loom-shim: Arc inner absent");
        std::sync::Arc::try_unwrap(inner).map_err(|shared| Arc { inner: Some(shared) })
    }
}

impl<T: ?Sized> Arc<T> {
    /// A mutable borrow of the value iff this is the sole reference, exactly like
    /// `std::sync::Arc::get_mut` (a scheduling point under a model).
    pub fn get_mut(this: &mut Arc<T>) -> Option<&mut T> {
        rt::point(rt::PointKind::Op("arc.get_mut"));
        std::sync::Arc::get_mut(this.inner.as_mut().expect("loom-shim: Arc inner absent"))
    }

    /// The number of strong references (diagnostic parity with `std`).
    pub fn strong_count(this: &Arc<T>) -> usize {
        std::sync::Arc::strong_count(this.arc())
    }

    /// Pointer equality of two `Arc`s.
    pub fn ptr_eq(this: &Arc<T>, other: &Arc<T>) -> bool {
        std::sync::Arc::ptr_eq(this.arc(), other.arc())
    }

    fn arc(&self) -> &std::sync::Arc<T> {
        self.inner.as_ref().expect("loom-shim: Arc inner absent")
    }
}

impl<T: ?Sized> Clone for Arc<T> {
    fn clone(&self) -> Arc<T> {
        rt::point(rt::PointKind::Op("arc.clone"));
        Arc { inner: Some(std::sync::Arc::clone(self.arc())) }
    }
}

impl<T: ?Sized> Drop for Arc<T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            rt::point(rt::PointKind::Op("arc.drop"));
        }
    }
}

impl<T: ?Sized> Deref for Arc<T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.arc()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Arc<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.arc(), f)
    }
}

/// Instrumented `Mutex`. Lock acquisition is a scheduling point; logical
/// ownership is tracked by the explorer (the inner `std` mutex is then always
/// uncontended because model threads are serialized).
pub struct Mutex<T: ?Sized> {
    id: usize,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex around `value`.
    pub fn new(value: T) -> Mutex<T> {
        Mutex { id: rt::next_resource_id(), inner: std::sync::Mutex::new(value) }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex. Under a model this never reports poisoning (a
    /// poisoned execution has already failed); outside one, `std` semantics.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if rt::in_model() {
            rt::mutex_acquire(self.id);
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            Ok(MutexGuard { lock: self, inner: Some(inner) })
        } else {
            match self.inner.lock() {
                Ok(inner) => Ok(MutexGuard { lock: self, inner: Some(inner) }),
                Err(poisoned) => Err(std::sync::PoisonError::new(MutexGuard {
                    lock: self,
                    inner: Some(poisoned.into_inner()),
                })),
            }
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

/// Guard for [`Mutex`]; releases logical and real ownership on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> MutexGuard<'_, T> {
    fn guard(&self) -> &std::sync::MutexGuard<'_, T> {
        self.inner.as_ref().expect("loom-shim: mutex guard already released")
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.guard()
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("loom-shim: mutex guard already released")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            drop(inner);
            rt::mutex_release(self.lock.id);
        }
    }
}

/// Instrumented `RwLock`; read and write acquisitions are scheduling points.
pub struct RwLock<T: ?Sized> {
    id: usize,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock around `value`.
    pub fn new(value: T) -> RwLock<T> {
        RwLock { id: rt::next_resource_id(), inner: std::sync::RwLock::new(value) }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        if rt::in_model() {
            rt::rwlock_acquire_read(self.id);
            let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
            Ok(RwLockReadGuard { lock: self, inner: Some(inner) })
        } else {
            match self.inner.read() {
                Ok(inner) => Ok(RwLockReadGuard { lock: self, inner: Some(inner) }),
                Err(poisoned) => Err(std::sync::PoisonError::new(RwLockReadGuard {
                    lock: self,
                    inner: Some(poisoned.into_inner()),
                })),
            }
        }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        if rt::in_model() {
            rt::rwlock_acquire_write(self.id);
            let inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
            Ok(RwLockWriteGuard { lock: self, inner: Some(inner) })
        } else {
            match self.inner.write() {
                Ok(inner) => Ok(RwLockWriteGuard { lock: self, inner: Some(inner) }),
                Err(poisoned) => Err(std::sync::PoisonError::new(RwLockWriteGuard {
                    lock: self,
                    inner: Some(poisoned.into_inner()),
                })),
            }
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("loom-shim: rwlock guard already released")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            drop(inner);
            rt::rwlock_release_read(self.lock.id);
        }
    }
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("loom-shim: rwlock guard already released")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("loom-shim: rwlock guard already released")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            drop(inner);
            rt::rwlock_release_write(self.lock.id);
        }
    }
}

/// Result of a timed condvar wait ([`Condvar::wait_timeout`]); our own type
/// because `std`'s cannot be constructed by the model path.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait returned because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Instrumented `Condvar`. Waits and notifies are scheduling points; under a
/// model there are no spurious wakeups and no real timeouts (a timed wait
/// degrades to a plain wait, which model code must tolerate — the channel
/// implementations in `rnknn-serve` re-check their predicates in a loop).
pub struct Condvar {
    id: usize,
    inner: std::sync::Condvar,
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl Condvar {
    /// Creates a new condition variable.
    pub fn new() -> Condvar {
        Condvar { id: rt::next_resource_id(), inner: std::sync::Condvar::new() }
    }

    /// Releases `guard`'s mutex, waits for a notification, and re-acquires.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        if rt::in_model() {
            let mutex = guard.lock;
            // Register as a waiter *before* releasing the mutex so a notify
            // arriving in between cannot be lost.
            rt::condvar_enqueue(self.id);
            let inner = guard.inner.take().expect("loom-shim: mutex guard already released");
            drop(inner);
            rt::mutex_release(mutex.id);
            drop(guard);
            rt::park_blocked();
            mutex.lock()
        } else {
            let mutex = guard.lock;
            let inner = guard.inner.take().expect("loom-shim: mutex guard already released");
            drop(guard);
            match self.inner.wait(inner) {
                Ok(inner) => Ok(MutexGuard { lock: mutex, inner: Some(inner) }),
                Err(poisoned) => Err(std::sync::PoisonError::new(MutexGuard {
                    lock: mutex,
                    inner: Some(poisoned.into_inner()),
                })),
            }
        }
    }

    /// [`Condvar::wait`] with a timeout. Under a model the timeout is ignored
    /// (never reported as elapsed); outside one, `std` semantics.
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        if rt::in_model() {
            match self.wait(guard) {
                Ok(g) => Ok((g, WaitTimeoutResult { timed_out: false })),
                Err(poisoned) => Err(std::sync::PoisonError::new((
                    poisoned.into_inner(),
                    WaitTimeoutResult { timed_out: false },
                ))),
            }
        } else {
            let mutex = guard.lock;
            let inner = guard.inner.take().expect("loom-shim: mutex guard already released");
            drop(guard);
            match self.inner.wait_timeout(inner, timeout) {
                Ok((inner, timed)) => Ok((
                    MutexGuard { lock: mutex, inner: Some(inner) },
                    WaitTimeoutResult { timed_out: timed.timed_out() },
                )),
                Err(poisoned) => {
                    let (inner, timed) = poisoned.into_inner();
                    Err(std::sync::PoisonError::new((
                        MutexGuard { lock: mutex, inner: Some(inner) },
                        WaitTimeoutResult { timed_out: timed.timed_out() },
                    )))
                }
            }
        }
    }

    /// Wakes one waiter (the explorer branches over which, when several wait).
    pub fn notify_one(&self) {
        if rt::in_model() {
            rt::condvar_notify_one(self.id);
        } else {
            self.inner.notify_one();
        }
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        if rt::in_model() {
            rt::condvar_notify_all(self.id);
        } else {
            self.inner.notify_all();
        }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").field("id", &self.id).finish()
    }
}

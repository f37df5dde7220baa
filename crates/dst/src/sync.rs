//! The sync facade.
//!
//! With the `model` feature **off**, every item here is a plain
//! re-export of `std::sync` — zero cost, identical types. With `model`
//! **on**, atomics and locks become instrumented versions that insert a
//! scheduling point before each operation when the calling thread
//! belongs to an active model execution, and pass straight through to
//! the underlying std type otherwise. The instrumented types mirror the
//! `std::sync` API surface the workspace uses (including poisoning
//! signatures), so consumers route through with a one-line import swap.

#[cfg(not(feature = "model"))]
pub use std::sync::{
    Arc, Condvar, LockResult, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard,
    RwLockWriteGuard, TryLockError, TryLockResult, Weak,
};

#[cfg(not(feature = "model"))]
pub mod atomic {
    pub use std::sync::atomic::*;
}

#[cfg(feature = "model")]
pub use std::sync::{
    Arc, Condvar, LockResult, OnceLock, PoisonError, TryLockError, TryLockResult, Weak,
};

#[cfg(feature = "model")]
pub use model::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(feature = "model")]
pub mod atomic {
    pub use super::model::atomic::{
        fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize,
    };
    pub use std::sync::atomic::Ordering;
}

#[cfg(feature = "model")]
mod model {
    use crate::runtime::{held_here, model_active, note_held, schedule, YieldKind};
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::sync::{self, LockResult, TryLockError, TryLockResult};

    /// A mutex whose acquisitions are scheduling points. Blocking is
    /// spin-with-yield: only one virtual thread runs at a time, so a
    /// failed `try_lock` means a descheduled thread holds the lock — the
    /// caller yields (deprioritizing itself under PCT) until the holder
    /// runs and releases. Real deadlocks surface as step-budget
    /// exhaustion with the full schedule trace attached.
    /// A holder outside the caller's execution — a process global such as
    /// the snapshot slab's free list, shared by model tests running in
    /// parallel — releases without this execution's baton: the caller
    /// blocks on it instead of spending its step budget yielding.
    pub struct Mutex<T: ?Sized> {
        inner: sync::Mutex<T>,
    }

    /// RAII guard for [`Mutex`]. Release is *not* a scheduling point:
    /// guards drop during unwinding, and a panic inside `Drop` would
    /// abort the process; the next instrumented operation observes the
    /// release anyway.
    pub struct MutexGuard<'a, T: ?Sized + 'a> {
        guard: sync::MutexGuard<'a, T>,
        lock: usize,
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            note_held(self.lock, false);
        }
    }

    impl<T> Mutex<T> {
        /// Creates a new instrumented mutex.
        pub const fn new(value: T) -> Mutex<T> {
            Mutex {
                inner: sync::Mutex::new(value),
            }
        }

        /// Consumes the mutex, returning the inner value.
        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquires the lock (poison-transparent: model executions
        /// recover the guard from a poisoned lock so the scheduler can
        /// unwind every thread cleanly after a failure).
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            schedule(YieldKind::Op);
            loop {
                match self.inner.try_lock() {
                    Ok(g) => return Ok(self.held(g)),
                    Err(TryLockError::Poisoned(e)) => return Ok(self.held(e.into_inner())),
                    Err(TryLockError::WouldBlock) => {
                        if !model_active() || !held_here(self.addr()) {
                            let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                            return Ok(self.held(g));
                        }
                        schedule(YieldKind::Yield);
                    }
                }
            }
        }

        /// Attempts the lock without blocking.
        pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
            schedule(YieldKind::Op);
            match self.inner.try_lock() {
                Ok(g) => Ok(self.held(g)),
                Err(TryLockError::Poisoned(e)) => Ok(self.held(e.into_inner())),
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            }
        }

        fn held<'a>(&'a self, guard: sync::MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            let lock = self.addr();
            note_held(lock, true);
            MutexGuard { guard, lock }
        }

        fn addr(&self) -> usize {
            self as *const Self as *const () as usize
        }

        /// Mutable access without locking (exclusive borrow).
        pub fn get_mut(&mut self) -> LockResult<&mut T> {
            self.inner.get_mut()
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.inner.fmt(f)
        }
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.guard
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.guard
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            (**self).fmt(f)
        }
    }

    /// A reader-writer lock with scheduled acquisitions (see [`Mutex`]
    /// for the blocking discipline).
    pub struct RwLock<T: ?Sized> {
        inner: sync::RwLock<T>,
    }

    /// Shared-read guard for [`RwLock`].
    pub struct RwLockReadGuard<'a, T: ?Sized + 'a>(sync::RwLockReadGuard<'a, T>);

    /// Exclusive-write guard for [`RwLock`].
    pub struct RwLockWriteGuard<'a, T: ?Sized + 'a>(sync::RwLockWriteGuard<'a, T>);

    impl<T> RwLock<T> {
        /// Creates a new instrumented reader-writer lock.
        pub const fn new(value: T) -> RwLock<T> {
            RwLock {
                inner: sync::RwLock::new(value),
            }
        }

        /// Consumes the lock, returning the inner value.
        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }
    }

    impl<T: ?Sized> RwLock<T> {
        /// Acquires a shared read lock.
        pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
            schedule(YieldKind::Op);
            loop {
                match self.inner.try_read() {
                    Ok(g) => return Ok(RwLockReadGuard(g)),
                    Err(TryLockError::Poisoned(e)) => return Ok(RwLockReadGuard(e.into_inner())),
                    Err(TryLockError::WouldBlock) => {
                        if !model_active() {
                            let g = self.inner.read().unwrap_or_else(|e| e.into_inner());
                            return Ok(RwLockReadGuard(g));
                        }
                        schedule(YieldKind::Yield);
                    }
                }
            }
        }

        /// Acquires the exclusive write lock.
        pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
            schedule(YieldKind::Op);
            loop {
                match self.inner.try_write() {
                    Ok(g) => return Ok(RwLockWriteGuard(g)),
                    Err(TryLockError::Poisoned(e)) => return Ok(RwLockWriteGuard(e.into_inner())),
                    Err(TryLockError::WouldBlock) => {
                        if !model_active() {
                            let g = self.inner.write().unwrap_or_else(|e| e.into_inner());
                            return Ok(RwLockWriteGuard(g));
                        }
                        schedule(YieldKind::Yield);
                    }
                }
            }
        }

        /// Mutable access without locking (exclusive borrow).
        pub fn get_mut(&mut self) -> LockResult<&mut T> {
            self.inner.get_mut()
        }
    }

    impl<T: Default> Default for RwLock<T> {
        fn default() -> Self {
            RwLock::new(T::default())
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.inner.fmt(f)
        }
    }

    impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }

    impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }

    impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.0
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            (**self).fmt(f)
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            (**self).fmt(f)
        }
    }

    pub mod atomic {
        use crate::runtime::{schedule, YieldKind};
        use std::sync::atomic::{self, Ordering};

        /// A memory fence preceded by a scheduling point.
        pub fn fence(order: Ordering) {
            schedule(YieldKind::Op);
            atomic::fence(order);
        }

        macro_rules! instrumented_atomic {
            ($(#[$m:meta])* $name:ident, $std:ident, $prim:ty) => {
                $(#[$m])*
                #[derive(Default)]
                pub struct $name {
                    inner: atomic::$std,
                }

                impl $name {
                    /// Creates a new instrumented atomic.
                    pub const fn new(value: $prim) -> $name {
                        $name { inner: atomic::$std::new(value) }
                    }

                    /// Atomic load (scheduling point).
                    #[inline]
                    pub fn load(&self, order: Ordering) -> $prim {
                        schedule(YieldKind::Op);
                        self.inner.load(order)
                    }

                    /// Atomic store (scheduling point).
                    #[inline]
                    pub fn store(&self, value: $prim, order: Ordering) {
                        schedule(YieldKind::Op);
                        self.inner.store(value, order);
                    }

                    /// Atomic swap (scheduling point).
                    #[inline]
                    pub fn swap(&self, value: $prim, order: Ordering) -> $prim {
                        schedule(YieldKind::Op);
                        self.inner.swap(value, order)
                    }

                    /// Atomic compare-exchange (scheduling point).
                    #[inline]
                    pub fn compare_exchange(
                        &self,
                        current: $prim,
                        new: $prim,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$prim, $prim> {
                        schedule(YieldKind::Op);
                        self.inner.compare_exchange(current, new, success, failure)
                    }

                    /// Atomic weak compare-exchange (scheduling point).
                    #[inline]
                    pub fn compare_exchange_weak(
                        &self,
                        current: $prim,
                        new: $prim,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$prim, $prim> {
                        schedule(YieldKind::Op);
                        self.inner.compare_exchange_weak(current, new, success, failure)
                    }

                    /// Mutable access (exclusive borrow; no scheduling).
                    #[inline]
                    pub fn get_mut(&mut self) -> &mut $prim {
                        self.inner.get_mut()
                    }

                    /// Consumes the atomic, returning the value.
                    #[inline]
                    pub fn into_inner(self) -> $prim {
                        self.inner.into_inner()
                    }
                }

                impl From<$prim> for $name {
                    fn from(value: $prim) -> $name {
                        $name::new(value)
                    }
                }

                impl std::fmt::Debug for $name {
                    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                        self.inner.fmt(f)
                    }
                }
            };
        }

        macro_rules! instrumented_int_ops {
            ($name:ident, $prim:ty) => {
                impl $name {
                    /// Atomic add, returning the previous value.
                    #[inline]
                    pub fn fetch_add(&self, value: $prim, order: Ordering) -> $prim {
                        schedule(YieldKind::Op);
                        self.inner.fetch_add(value, order)
                    }

                    /// Atomic subtract, returning the previous value.
                    #[inline]
                    pub fn fetch_sub(&self, value: $prim, order: Ordering) -> $prim {
                        schedule(YieldKind::Op);
                        self.inner.fetch_sub(value, order)
                    }

                    /// Atomic bitwise or, returning the previous value.
                    #[inline]
                    pub fn fetch_or(&self, value: $prim, order: Ordering) -> $prim {
                        schedule(YieldKind::Op);
                        self.inner.fetch_or(value, order)
                    }

                    /// Atomic bitwise and, returning the previous value.
                    #[inline]
                    pub fn fetch_and(&self, value: $prim, order: Ordering) -> $prim {
                        schedule(YieldKind::Op);
                        self.inner.fetch_and(value, order)
                    }

                    /// Atomic bitwise xor, returning the previous value.
                    #[inline]
                    pub fn fetch_xor(&self, value: $prim, order: Ordering) -> $prim {
                        schedule(YieldKind::Op);
                        self.inner.fetch_xor(value, order)
                    }

                    /// Atomic max, returning the previous value.
                    #[inline]
                    pub fn fetch_max(&self, value: $prim, order: Ordering) -> $prim {
                        schedule(YieldKind::Op);
                        self.inner.fetch_max(value, order)
                    }

                    /// Atomic min, returning the previous value.
                    #[inline]
                    pub fn fetch_min(&self, value: $prim, order: Ordering) -> $prim {
                        schedule(YieldKind::Op);
                        self.inner.fetch_min(value, order)
                    }
                }
            };
        }

        instrumented_atomic! {
            /// Instrumented `AtomicU32`: every operation is a scheduling
            /// point inside model executions, a plain std op otherwise.
            AtomicU32, AtomicU32, u32
        }
        instrumented_int_ops!(AtomicU32, u32);

        instrumented_atomic! {
            /// Instrumented `AtomicU64` (see [`AtomicU32`]).
            AtomicU64, AtomicU64, u64
        }
        instrumented_int_ops!(AtomicU64, u64);

        instrumented_atomic! {
            /// Instrumented `AtomicUsize` (see [`AtomicU32`]).
            AtomicUsize, AtomicUsize, usize
        }
        instrumented_int_ops!(AtomicUsize, usize);

        instrumented_atomic! {
            /// Instrumented `AtomicBool` (see [`AtomicU32`]).
            AtomicBool, AtomicBool, bool
        }

        impl AtomicBool {
            /// Atomic bitwise or, returning the previous value.
            #[inline]
            pub fn fetch_or(&self, value: bool, order: Ordering) -> bool {
                schedule(YieldKind::Op);
                self.inner.fetch_or(value, order)
            }

            /// Atomic bitwise and, returning the previous value.
            #[inline]
            pub fn fetch_and(&self, value: bool, order: Ordering) -> bool {
                schedule(YieldKind::Op);
                self.inner.fetch_and(value, order)
            }
        }

        /// Instrumented `AtomicPtr<T>` (see [`AtomicU32`]).
        pub struct AtomicPtr<T> {
            inner: atomic::AtomicPtr<T>,
        }

        impl<T> AtomicPtr<T> {
            /// Creates a new instrumented atomic pointer.
            pub const fn new(ptr: *mut T) -> AtomicPtr<T> {
                AtomicPtr {
                    inner: atomic::AtomicPtr::new(ptr),
                }
            }

            /// Atomic load (scheduling point).
            #[inline]
            pub fn load(&self, order: Ordering) -> *mut T {
                schedule(YieldKind::Op);
                self.inner.load(order)
            }

            /// Atomic store (scheduling point).
            #[inline]
            pub fn store(&self, ptr: *mut T, order: Ordering) {
                schedule(YieldKind::Op);
                self.inner.store(ptr, order);
            }

            /// Atomic swap (scheduling point).
            #[inline]
            pub fn swap(&self, ptr: *mut T, order: Ordering) -> *mut T {
                schedule(YieldKind::Op);
                self.inner.swap(ptr, order)
            }

            /// Atomic compare-exchange (scheduling point).
            #[inline]
            pub fn compare_exchange(
                &self,
                current: *mut T,
                new: *mut T,
                success: Ordering,
                failure: Ordering,
            ) -> Result<*mut T, *mut T> {
                schedule(YieldKind::Op);
                self.inner.compare_exchange(current, new, success, failure)
            }

            /// Mutable access (exclusive borrow; no scheduling).
            #[inline]
            pub fn get_mut(&mut self) -> &mut *mut T {
                self.inner.get_mut()
            }
        }

        impl<T> Default for AtomicPtr<T> {
            fn default() -> Self {
                AtomicPtr::new(std::ptr::null_mut())
            }
        }

        impl<T> std::fmt::Debug for AtomicPtr<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.inner.fmt(f)
            }
        }
    }
}

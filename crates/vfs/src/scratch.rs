//! Inline scratch storage for the lookup hot path (DESIGN.md §13).
//!
//! A warm fastpath stat used to pay two heap allocations before it ever
//! touched the DLHT: the `Vec` of parsed components and the `Vec` of
//! pending (dot-dot-reduced) components. Both are tiny — almost every
//! real path has well under [`INLINE_COMPONENTS`] components — and both
//! die before the syscall returns, the textbook case for inline
//! storage. [`InlineVec`] keeps up to `N` elements in the parent
//! object itself (for [`crate::path::ParsedPath`], the caller's stack
//! frame) and spills to a real `Vec` only past that, so the warm path
//! performs **zero** heap allocations end to end — asserted by the
//! allocation-counting harness in `tests/lockfree_read.rs`.

/// Inline capacity used for path components throughout the walkers.
/// Sixteen components cover every path in the paper's workloads; deeper
/// paths spill and still resolve correctly.
pub const INLINE_COMPONENTS: usize = 16;

/// A small-vector: up to `N` elements stored inline, spilling to the
/// heap on overflow.
///
/// `T: Copy + Default` keeps the implementation free of `unsafe`: the
/// inline buffer is a plain `[T; N]` pre-filled with defaults, and only
/// `buf[..len]` is ever observable.
#[derive(Clone)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    buf: [T; N],
    len: usize,
    /// Exclusive storage once `spilled`; empty and unused before.
    heap: Vec<T>,
    spilled: bool,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector using inline storage.
    #[inline]
    pub fn new() -> Self {
        InlineVec {
            buf: [T::default(); N],
            len: 0,
            heap: Vec::new(),
            spilled: false,
        }
    }

    /// Appends an element, migrating to the heap when the inline buffer
    /// fills.
    #[inline]
    pub fn push(&mut self, value: T) {
        if !self.spilled {
            if self.len < N {
                self.buf[self.len] = value;
                self.len += 1;
                return;
            }
            self.spill();
        }
        self.heap.push(value);
    }

    /// Removes and returns the last element.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        if self.spilled {
            return self.heap.pop();
        }
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(self.buf[self.len])
    }

    /// True once elements live on the heap rather than inline.
    #[inline]
    pub fn is_spilled(&self) -> bool {
        self.spilled
    }

    #[cold]
    fn spill(&mut self) {
        debug_assert!(!self.spilled);
        self.heap.reserve(self.len + 1);
        self.heap.extend_from_slice(&self.buf[..self.len]);
        self.len = 0;
        self.spilled = true;
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        if self.spilled {
            &self.heap
        } else {
            &self.buf[..self.len]
        }
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + Default + std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self[..] == other[..]
    }
}

impl<T: Copy + Default + PartialEq, const N: usize, const M: usize> PartialEq<[T; M]>
    for InlineVec<T, N>
{
    fn eq(&self, other: &[T; M]) -> bool {
        self[..] == other[..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        for i in 0..4 {
            v.push(i);
        }
        assert!(!v.is_spilled());
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    fn spills_past_capacity_and_preserves_order() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        for i in 0..20 {
            v.push(i);
        }
        assert!(v.is_spilled());
        assert_eq!(&v[..], (0..20).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn pop_works_in_both_modes() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        assert_eq!(v.pop(), None);
        v.push(1);
        assert_eq!(v.pop(), Some(1));
        for i in 0..5 {
            v.push(i);
        }
        assert_eq!(v.pop(), Some(4));
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    fn clone_and_eq_cross_modes() {
        let mut a: InlineVec<u32, 4> = InlineVec::new();
        let mut b: InlineVec<u32, 4> = InlineVec::new();
        for i in 0..3 {
            a.push(i);
            b.push(i);
        }
        assert_eq!(a, b);
        assert_eq!(a.clone(), b.clone());
        assert_eq!(a, [0, 1, 2]);
    }

    #[test]
    fn str_slices_work() {
        // The actual instantiation the walkers use.
        let mut v: InlineVec<&str, 4> = InlineVec::new();
        v.push("usr");
        v.push("lib");
        assert_eq!(v, vec!["usr", "lib"]);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), ["usr", "lib"]);
    }
}

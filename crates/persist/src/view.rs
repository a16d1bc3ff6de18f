//! Safe typed views over a loaded artifact.
//!
//! The zero-copy story: an index struct loaded from disk must expose the same
//! `&[u32]` / `&[u64]` slices a freshly built one does, without copying the
//! multi-gigabyte arenas out of the mapped file and without threading a
//! borrow lifetime through every index type. The pieces:
//!
//! * [`Pod`] — the closed set of element types that may be reinterpreted from
//!   raw artifact bytes (`u8`, `u32`, `u64`). All are padding-free and valid
//!   for every bit pattern, so *no* byte corruption can make the cast itself
//!   unsound — corrupt values are wrong numbers, caught by checksums and
//!   structural validation, never UB.
//! * [`SharedSlice<T>`] — `Arc<Bytes>` + element pointer + length, checked
//!   for bounds and alignment at construction. Deref's to `&[T]` as cheaply as
//!   a `Vec`; cloning and sub-slicing are O(1) and share the buffer.
//! * [`PVec<T>`] — "persistent vec": either an owned `Vec<T>` (built index)
//!   or a [`SharedSlice<T>`] view (loaded index). Derefs to `[T]` either way,
//!   so query code is identical; mutation promotes to owned (copy-on-write),
//!   which keeps incremental-update paths working on loaded indexes.

use crate::buffer::Bytes;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Element types that may be viewed directly in artifact bytes.
///
/// # Safety
///
/// Implementors must have no padding, no invalid bit patterns, no pointers and
/// no interior mutability, and must have the same layout on disk as in memory
/// on a little-endian target (the crate refuses to compile elsewhere). The
/// trait is implemented for exactly `u8`, `u32`, `u64` and is not meant to be
/// implemented outside this crate.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

// SAFETY: primitive unsigned integers have no padding and accept any bit pattern.
unsafe impl Pod for u8 {}
// SAFETY: as above.
unsafe impl Pod for u32 {}
// SAFETY: as above.
unsafe impl Pod for u64 {}

/// Reinterprets a Pod slice as its little-endian byte image (the serialized
/// form — this crate only compiles on little-endian targets).
pub fn pod_bytes<T: Pod>(s: &[T]) -> &[u8] {
    // SAFETY: Pod guarantees no padding, so every byte of the slice is
    // initialised; `u8` has alignment 1; the length is the exact byte size.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

/// A typed, shared, immutable window into an artifact buffer.
pub struct SharedSlice<T: Pod> {
    /// Keeps the bytes `ptr` points into alive and immutable.
    buf: Arc<Bytes>,
    /// The first element: inside `buf`, aligned for `T`, with `len` elements in
    /// bounds. Held directly so that a read costs no more than a `Vec`'s.
    ptr: *const T,
    /// Length in elements.
    len: usize,
}

// SAFETY: `ptr` points into the bytes `buf` owns and keeps alive; nothing is
// ever written through it, `Bytes` is `Send + Sync`, and so is every `Pod`.
unsafe impl<T: Pod> Send for SharedSlice<T> {}
// SAFETY: as above — the view hands out only shared `&[T]`.
unsafe impl<T: Pod> Sync for SharedSlice<T> {}

impl<T: Pod> SharedSlice<T> {
    /// Creates a view of `len` elements starting `offset` bytes into `buf`.
    /// Returns `None` if the range is out of bounds or misaligned for `T`.
    pub fn new(buf: Arc<Bytes>, offset: usize, len: usize) -> Option<SharedSlice<T>> {
        let byte_len = len.checked_mul(std::mem::size_of::<T>())?;
        let end = offset.checked_add(byte_len)?;
        let ptr = buf.as_slice().get(offset..end)?.as_ptr().cast::<T>();
        if !ptr.is_aligned() {
            return None;
        }
        Some(SharedSlice { buf, ptr, len })
    }

    /// The elements. Zero-copy: the returned slice borrows the shared buffer.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: construction (and `slice`) checked that the `len` elements at
        // `ptr` lie inside `buf` and that `ptr` is aligned for `T`; `Pod`
        // guarantees every bit pattern is a valid `T`; the buffer is immutable
        // and kept alive by the `Arc` for the borrow's duration.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Length in elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// An O(1) sub-view of `len` elements starting at element `start`.
    /// Returns `None` if the range exceeds this view.
    pub fn slice(&self, start: usize, len: usize) -> Option<SharedSlice<T>> {
        let end = start.checked_add(len)?;
        let ptr = self.as_slice().get(start..end)?.as_ptr();
        Some(SharedSlice { buf: Arc::clone(&self.buf), ptr, len })
    }
}

impl<T: Pod> Clone for SharedSlice<T> {
    fn clone(&self) -> Self {
        SharedSlice { buf: Arc::clone(&self.buf), ptr: self.ptr, len: self.len }
    }
}

impl<T: Pod> Deref for SharedSlice<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> std::fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let offset = self.ptr as usize - self.buf.as_slice().as_ptr() as usize;
        f.debug_struct("SharedSlice").field("offset", &offset).field("len", &self.len).finish()
    }
}

enum Repr<T: Pod> {
    Owned(Vec<T>),
    View(SharedSlice<T>),
}

/// A vector that is either owned (built in memory) or a zero-copy view into a
/// loaded artifact. Derefs to `[T]` either way; mutable access promotes a
/// view to an owned copy first (copy-on-write).
pub struct PVec<T: Pod> {
    repr: Repr<T>,
}

impl<T: Pod> PVec<T> {
    /// An empty owned vector.
    pub fn new() -> PVec<T> {
        PVec { repr: Repr::Owned(Vec::new()) }
    }

    /// Wraps a loaded view.
    pub fn from_view(view: SharedSlice<T>) -> PVec<T> {
        PVec { repr: Repr::View(view) }
    }

    /// Whether this is still a zero-copy view (false once promoted or built).
    pub fn is_view(&self) -> bool {
        matches!(self.repr, Repr::View(_))
    }

    /// The elements.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v.as_slice(),
            Repr::View(s) => s.as_slice(),
        }
    }

    /// Mutable access, promoting a view to an owned copy if needed.
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if let Repr::View(s) = &self.repr {
            self.repr = Repr::Owned(s.as_slice().to_vec());
        }
        match &mut self.repr {
            Repr::Owned(v) => v,
            Repr::View(_) => unreachable!("promoted above"),
        }
    }

    /// Consumes into an owned `Vec`, copying if this was a view.
    pub fn into_vec(self) -> Vec<T> {
        match self.repr {
            Repr::Owned(v) => v,
            Repr::View(s) => s.as_slice().to_vec(),
        }
    }
}

impl<T: Pod> Default for PVec<T> {
    fn default() -> Self {
        PVec::new()
    }
}

impl<T: Pod> From<Vec<T>> for PVec<T> {
    fn from(v: Vec<T>) -> PVec<T> {
        PVec { repr: Repr::Owned(v) }
    }
}

impl<T: Pod> From<SharedSlice<T>> for PVec<T> {
    fn from(s: SharedSlice<T>) -> PVec<T> {
        PVec::from_view(s)
    }
}

impl<T: Pod> Deref for PVec<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> DerefMut for PVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.to_mut().as_mut_slice()
    }
}

impl<T: Pod> Clone for PVec<T> {
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Owned(v) => PVec { repr: Repr::Owned(v.clone()) },
            Repr::View(s) => PVec { repr: Repr::View(s.clone()) },
        }
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for PVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Summarize: index arrays run to hundreds of millions of elements.
        let s = self.as_slice();
        if s.len() <= 16 {
            write!(f, "PVec{s:?}")
        } else {
            write!(f, "PVec[len={}, view={}]", s.len(), self.is_view())
        }
    }
}

impl<T: Pod + PartialEq> PartialEq for PVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Eq> Eq for PVec<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf_from_u64s(words: &[u64]) -> Arc<Bytes> {
        Arc::new(Bytes::from_vec(words.iter().flat_map(|w| w.to_le_bytes()).collect()))
    }

    #[test]
    fn shared_slice_views_typed_data() {
        let buf = buf_from_u64s(&[1, 2, 3, 4]);
        let s = SharedSlice::<u64>::new(Arc::clone(&buf), 0, 4).unwrap();
        assert_eq!(&*s, &[1, 2, 3, 4]);
        let sub = s.slice(1, 2).unwrap();
        assert_eq!(&*sub, &[2, 3]);
        assert!(s.slice(3, 2).is_none());
        let u32s = SharedSlice::<u32>::new(Arc::clone(&buf), 4, 2).unwrap();
        assert_eq!(u32s.len(), 2);
    }

    #[test]
    fn shared_slice_rejects_oob_and_misalignment() {
        let buf = buf_from_u64s(&[1, 2]);
        assert!(SharedSlice::<u64>::new(Arc::clone(&buf), 0, 3).is_none(), "out of bounds");
        assert!(SharedSlice::<u64>::new(Arc::clone(&buf), 4, 1).is_none(), "misaligned");
        assert!(SharedSlice::<u64>::new(Arc::clone(&buf), usize::MAX, 1).is_none(), "overflow");
        assert!(SharedSlice::<u64>::new(Arc::clone(&buf), 0, usize::MAX).is_none(), "mul overflow");
        assert!(SharedSlice::<u8>::new(buf, 15, 1).is_some(), "u8 has no alignment demands");
    }

    #[test]
    fn pvec_owned_and_view_behave_identically() {
        let buf = buf_from_u64s(&[10, 20, 30]);
        let view = PVec::from_view(SharedSlice::<u64>::new(buf, 0, 3).unwrap());
        let owned: PVec<u64> = vec![10, 20, 30].into();
        assert_eq!(view, owned);
        assert_eq!(&view[1..], &[20, 30]);
        assert!(view.is_view());
        assert!(!owned.is_view());
        let cloned = view.clone();
        assert!(cloned.is_view(), "clone of a view stays zero-copy");
    }

    #[test]
    fn pvec_mutation_promotes_to_owned() {
        let buf = buf_from_u64s(&[1, 2, 3]);
        let mut v = PVec::from_view(SharedSlice::<u64>::new(buf, 0, 3).unwrap());
        v[1] = 99;
        assert!(!v.is_view());
        assert_eq!(&*v, &[1, 99, 3]);
        assert_eq!(v.into_vec(), vec![1, 99, 3]);
    }
}

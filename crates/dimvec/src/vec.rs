//! The [`DimVec`] type: a small-vector of `u64` resource units.

use core::fmt;
use core::hash::{Hash, Hasher};
use core::ops::{Index, IndexMut};

/// Number of dimensions stored inline without a heap allocation.
///
/// The paper's experiments use `d ≤ 5`; eight inline slots cover every
/// realistic cloud-resource model (CPU, GPU, memory, disk, ingress, egress,
/// IOPS, FPGA) while keeping `DimVec` at 72 bytes.
pub const INLINE_DIMS: usize = 8;

#[derive(Clone)]
enum Repr {
    Inline { len: u8, data: [u64; INLINE_DIMS] },
    Heap(Box<[u64]>),
}

/// A `d`-dimensional vector of resource units.
///
/// Semantically an immutable-length `Vec<u64>`; the dimensionality is fixed
/// at construction. Components are interpreted as integer resource units
/// relative to some bin capacity (see `dvbp_core::Capacity`).
///
/// # Examples
///
/// ```
/// use dvbp_dimvec::DimVec;
///
/// let a = DimVec::from_slice(&[3, 5]);
/// let b = DimVec::from_slice(&[1, 2]);
/// let cap = DimVec::splat(2, 10);
///
/// let mut load = DimVec::zeros(2);
/// load.add_assign(&a);
/// load.add_assign(&b);
/// assert_eq!(load.as_slice(), &[4, 7]);
/// assert!(load.fits_within(&cap));
/// assert_eq!(load.max_component(), 7);
/// ```
pub struct DimVec(Repr);

impl DimVec {
    /// Creates a zero vector with `dim` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`; a zero-dimensional resource demand is
    /// meaningless in DVBP.
    #[must_use]
    pub fn zeros(dim: usize) -> Self {
        Self::splat(dim, 0)
    }

    /// Creates a vector with every component equal to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn splat(dim: usize, value: u64) -> Self {
        assert!(dim > 0, "DimVec must have at least one dimension");
        if dim <= INLINE_DIMS {
            let mut data = [0u64; INLINE_DIMS];
            data[..dim].fill(value);
            DimVec(Repr::Inline {
                len: dim as u8,
                data,
            })
        } else {
            DimVec(Repr::Heap(vec![value; dim].into_boxed_slice()))
        }
    }

    /// Creates a vector from a slice of components.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty.
    #[must_use]
    pub fn from_slice(components: &[u64]) -> Self {
        assert!(
            !components.is_empty(),
            "DimVec must have at least one dimension"
        );
        let dim = components.len();
        if dim <= INLINE_DIMS {
            let mut data = [0u64; INLINE_DIMS];
            data[..dim].copy_from_slice(components);
            DimVec(Repr::Inline {
                len: dim as u8,
                data,
            })
        } else {
            DimVec(Repr::Heap(components.to_vec().into_boxed_slice()))
        }
    }

    /// Creates a one-dimensional vector — the classic (scalar) DBP setting.
    #[must_use]
    pub fn scalar(value: u64) -> Self {
        Self::from_slice(&[value])
    }

    /// Builds a vector by evaluating `f` at each dimension index.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn from_fn(dim: usize, mut f: impl FnMut(usize) -> u64) -> Self {
        let mut v = Self::zeros(dim);
        for j in 0..dim {
            v[j] = f(j);
        }
        v
    }

    /// Number of dimensions.
    #[must_use]
    #[inline]
    pub fn dim(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(b) => b.len(),
        }
    }

    /// Components as a slice.
    #[must_use]
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { len, data } => &data[..*len as usize],
            Repr::Heap(b) => b,
        }
    }

    /// Components as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Repr::Inline { len, data } => &mut data[..*len as usize],
            Repr::Heap(b) => b,
        }
    }

    /// Iterator over components.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.as_slice().iter().copied()
    }

    /// `true` iff every component is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.iter().all(|c| c == 0)
    }

    /// Componentwise `self += rhs`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or on `u64` overflow (overflow would
    /// mean a corrupted packing state, never a legitimate load).
    pub fn add_assign(&mut self, rhs: &DimVec) {
        assert_eq!(self.dim(), rhs.dim(), "dimension mismatch");
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.iter()) {
            *a = a.checked_add(b).expect("resource-unit overflow");
        }
    }

    /// Componentwise `self -= rhs`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or underflow. Underflow indicates the
    /// engine tried to remove an item that was never added to this load.
    pub fn sub_assign(&mut self, rhs: &DimVec) {
        assert_eq!(self.dim(), rhs.dim(), "dimension mismatch");
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.iter()) {
            *a = a.checked_sub(b).expect("resource-unit underflow");
        }
    }

    /// Componentwise sum, returning a new vector.
    #[must_use]
    pub fn add(&self, rhs: &DimVec) -> DimVec {
        let mut out = self.clone();
        out.add_assign(rhs);
        out
    }

    /// `true` iff `self[j] <= bound[j]` for every dimension `j`.
    ///
    /// This is the feasibility test at the heart of every packing decision.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    #[inline]
    pub fn fits_within(&self, bound: &DimVec) -> bool {
        assert_eq!(self.dim(), bound.dim(), "dimension mismatch");
        self.iter().zip(bound.iter()).all(|(a, b)| a <= b)
    }

    /// `true` iff `self + extra` fits within `bound`, without allocating.
    ///
    /// Equivalent to `self.add(extra).fits_within(bound)` but overflow-safe
    /// and allocation-free — this is the hot path of every Any Fit policy.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    #[inline]
    pub fn fits_with(&self, extra: &DimVec, bound: &DimVec) -> bool {
        assert_eq!(self.dim(), extra.dim(), "dimension mismatch");
        assert_eq!(self.dim(), bound.dim(), "dimension mismatch");
        self.iter()
            .zip(extra.iter())
            .zip(bound.iter())
            .all(|((a, e), b)| a.checked_add(e).is_some_and(|s| s <= b))
    }

    /// Largest component — the (unnormalized) `L∞` norm of §2 of the paper.
    #[must_use]
    pub fn max_component(&self) -> u64 {
        self.iter().max().unwrap_or(0)
    }

    /// Sum of components — the (unnormalized) `L1` norm. `u128` because a
    /// sum over many dimensions of large unit counts may exceed `u64`.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.iter().map(u128::from).sum()
    }
}

impl Clone for DimVec {
    fn clone(&self) -> Self {
        DimVec(self.0.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        if let (Repr::Heap(dst), Repr::Heap(src)) = (&mut self.0, &source.0) {
            if dst.len() == src.len() {
                dst.copy_from_slice(src);
                return;
            }
        }
        *self = source.clone();
    }
}

impl PartialEq for DimVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for DimVec {}

impl Hash for DimVec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialOrd for DimVec {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DimVec {
    /// Lexicographic order; used for canonical sorting in the exact solver.
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl fmt::Debug for DimVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl fmt::Display for DimVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (j, c) in self.iter().enumerate() {
            if j > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl Index<usize> for DimVec {
    type Output = u64;

    // Inlined across crates: the engine's per-bin probe indexes item
    // sizes and capacities once per dimension, and an out-of-line call
    // per component dominated Move To Front's probe loop.
    #[inline]
    fn index(&self, j: usize) -> &u64 {
        &self.as_slice()[j]
    }
}

impl IndexMut<usize> for DimVec {
    #[inline]
    fn index_mut(&mut self, j: usize) -> &mut u64 {
        &mut self.as_mut_slice()[j]
    }
}

impl From<&[u64]> for DimVec {
    fn from(s: &[u64]) -> Self {
        DimVec::from_slice(s)
    }
}

impl<const N: usize> From<[u64; N]> for DimVec {
    fn from(s: [u64; N]) -> Self {
        DimVec::from_slice(&s)
    }
}

impl FromIterator<u64> for DimVec {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let v: Vec<u64> = iter.into_iter().collect();
        DimVec::from_slice(&v)
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for DimVec {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self.iter())
    }
}

#[cfg(feature = "serde")]
impl<'de> serde::Deserialize<'de> for DimVec {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let v = Vec::<u64>::deserialize(deserializer)?;
        if v.is_empty() {
            return Err(serde::de::Error::custom("DimVec must be non-empty"));
        }
        Ok(DimVec::from_slice(&v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_splat() {
        let z = DimVec::zeros(3);
        assert_eq!(z.dim(), 3);
        assert!(z.is_zero());
        let s = DimVec::splat(4, 7);
        assert_eq!(s.as_slice(), &[7, 7, 7, 7]);
        assert!(!s.is_zero());
    }

    #[test]
    fn inline_and_heap_representations_agree() {
        // One dimension below, at, and above the inline threshold.
        for dim in [INLINE_DIMS - 1, INLINE_DIMS, INLINE_DIMS + 1, 16] {
            let comps: Vec<u64> = (0..dim as u64).collect();
            let v = DimVec::from_slice(&comps);
            assert_eq!(v.dim(), dim);
            assert_eq!(v.as_slice(), comps.as_slice());
            assert_eq!(v.max_component(), dim as u64 - 1);
            assert_eq!(v.sum(), comps.iter().map(|&c| u128::from(c)).sum());
        }
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dim_panics() {
        let _ = DimVec::zeros(0);
    }

    #[test]
    fn scalar_is_one_dimensional() {
        let v = DimVec::scalar(42);
        assert_eq!(v.dim(), 1);
        assert_eq!(v[0], 42);
    }

    #[test]
    fn from_fn_matches_closure() {
        let v = DimVec::from_fn(5, |j| (j * j) as u64);
        assert_eq!(v.as_slice(), &[0, 1, 4, 9, 16]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let mut load = DimVec::zeros(2);
        let a = DimVec::from_slice(&[3, 4]);
        let b = DimVec::from_slice(&[1, 2]);
        load.add_assign(&a);
        load.add_assign(&b);
        assert_eq!(load.as_slice(), &[4, 6]);
        load.sub_assign(&a);
        assert_eq!(load.as_slice(), &[1, 2]);
        load.sub_assign(&b);
        assert!(load.is_zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let mut load = DimVec::zeros(1);
        load.sub_assign(&DimVec::scalar(1));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn add_overflow_panics() {
        let mut load = DimVec::splat(1, u64::MAX);
        load.add_assign(&DimVec::scalar(1));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dim_mismatch_panics() {
        let mut a = DimVec::zeros(2);
        a.add_assign(&DimVec::zeros(3));
    }

    #[test]
    fn fits_within_is_componentwise() {
        let cap = DimVec::from_slice(&[10, 10]);
        assert!(DimVec::from_slice(&[10, 0]).fits_within(&cap));
        assert!(DimVec::from_slice(&[10, 10]).fits_within(&cap));
        assert!(!DimVec::from_slice(&[11, 0]).fits_within(&cap));
        assert!(!DimVec::from_slice(&[0, 11]).fits_within(&cap));
    }

    #[test]
    fn fits_with_equals_add_then_fits() {
        let cap = DimVec::from_slice(&[10, 10]);
        let load = DimVec::from_slice(&[6, 9]);
        assert!(load.fits_with(&DimVec::from_slice(&[4, 1]), &cap));
        assert!(!load.fits_with(&DimVec::from_slice(&[4, 2]), &cap));
        assert!(!load.fits_with(&DimVec::from_slice(&[5, 0]), &cap));
    }

    #[test]
    fn fits_with_handles_overflow() {
        let cap = DimVec::splat(1, u64::MAX);
        let load = DimVec::splat(1, u64::MAX);
        // load + 1 overflows u64; must report "does not fit", not panic.
        assert!(!load.fits_with(&DimVec::scalar(1), &cap));
        assert!(load.fits_with(&DimVec::scalar(0), &cap));
    }

    #[test]
    fn norms() {
        let v = DimVec::from_slice(&[2, 9, 4]);
        assert_eq!(v.max_component(), 9);
        assert_eq!(v.sum(), 15);
    }

    #[test]
    fn equality_and_hash_are_value_based() {
        use std::collections::HashSet;
        let a = DimVec::from_slice(&[1, 2, 3]);
        let b = DimVec::from_slice(&[1, 2, 3]);
        let c = DimVec::from_slice(&[1, 2, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = DimVec::from_slice(&[1, 9]);
        let b = DimVec::from_slice(&[2, 0]);
        assert!(a < b);
    }

    #[test]
    fn indexing() {
        let mut v = DimVec::from_slice(&[5, 6]);
        assert_eq!(v[1], 6);
        v[1] = 8;
        assert_eq!(v.as_slice(), &[5, 8]);
    }

    #[test]
    fn display_format() {
        let v = DimVec::from_slice(&[1, 2]);
        assert_eq!(v.to_string(), "(1, 2)");
    }

    #[test]
    fn from_array_and_iterator() {
        let v: DimVec = [1u64, 2, 3].into();
        assert_eq!(v.dim(), 3);
        let w: DimVec = (1u64..=3).collect();
        assert_eq!(v, w);
    }

    #[test]
    fn clone_from_reuses_heap() {
        let src = DimVec::from_slice(&(0..16u64).collect::<Vec<_>>());
        let mut dst = DimVec::zeros(16);
        dst.clone_from(&src);
        assert_eq!(dst, src);
        // Different length: falls back to a fresh clone.
        let mut small = DimVec::zeros(2);
        small.clone_from(&src);
        assert_eq!(small, src);
    }
}

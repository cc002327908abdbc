//! Vectorized bin-feasibility kernel: a dimension-major (SoA) residual
//! mirror of the engine's open bins, scanned in blocks of [`LANES`]
//! slots per step.
//!
//! The Any-Fit hot path answers one question per candidate bin —
//! `need[j] ≤ residual[j]` for every dimension `j`. The engine's load
//! arena is bin-major (good for committing a placement, bad for
//! scanning), so [`ResidualBlocks`] keeps the *residuals* a second time,
//! dimension-major: `rows[j * stride + slot]`. A block scan then streams
//! `LANES` consecutive slots' residuals for one dimension with a single
//! contiguous load, accumulates a branchless feasibility mask across
//! dimensions, and resolves the first/last/all feasible bins from the
//! mask bits.
//!
//! The mirror is indexed by **dense slot**, not by bin id. A newly
//! opened bin appends a slot, and a `slot → bin` table turns mask hits
//! back into bin ids. A closing bin leaves a zero-residual tombstone;
//! once the tombstones outnumber the live slots (and fill more than one
//! block), a stable in-place compaction squeezes them out. Slot order
//! therefore stays bin-id order (ties, Random Fit's RNG stream and scan
//! counts are unchanged), and a scan walks at most `max(2m, m + 8)`
//! slots for `m` open bins — however many bins the run has opened and
//! closed before. Indexing by bin id instead made long streams scan the
//! whole open-id *span*, which on cloud-shaped streams is 7–14× the
//! open-bin count.
//!
//! Invariants that make a mask hit trustworthy without consulting the
//! open-bin list:
//!
//! * **tombstones and the padding lanes past the last slot read
//!   residual 0**, and
//! * **items have a nonzero demand in at least one dimension** — both
//!   `Instance::validate` and `LiveEngine::arrive` reject all-zero
//!   sizes,
//!
//! so `need ≤ residual` can only hold for a live slot. Callers still
//! confirm every selected bin against the authoritative load arena
//! (`EngineView::fits`) before acting on it — a desynchronized mirror
//! panics instead of corrupting a packing.
//!
//! The mask kernel has three interchangeable backends with identical
//! results: a portable branchless form written so LLVM can autovectorize
//! it, an AVX2 `core::arch` path selected at runtime on `x86_64`, and a
//! NEON path on `aarch64`. The `scalar-scan` cargo feature removes the
//! block path from the engine's scan helpers entirely (CI builds and
//! tests that leg), without affecting these primitives or their tests.

/// Slots examined per block-scan step. The arena stride is kept a
/// multiple of this so a block load never runs past the allocation.
pub const LANES: usize = 8;

/// Initial stride (in slots) of a fresh arena.
const INITIAL_STRIDE: usize = 64;

/// `slot_bin` marker of a tombstone (a closed bin's slot).
const DEAD: usize = usize::MAX;

/// Dimension-major residual mirror over dense, lane-padded slots.
///
/// The engine latches it on a run's first scan, like the
/// [`FitIndex`](crate::FitIndex), and then maintains it: updates are
/// O(d) plain stores per event, plus an amortized O(d) per close for
/// compaction. The arena is kept across runs of the owning
/// [`Engine`](crate::Engine) — `ResidualBlocks::reset` zeroes the used
/// prefix in place when the dimensionality is unchanged, preserving the
/// engine's zero-allocations-per-arrival steady state.
#[derive(Debug, Default)]
pub struct ResidualBlocks {
    dims: usize,
    /// Row length in slots; a multiple of [`LANES`].
    stride: usize,
    /// `dims * stride` residuals, dimension-major. Every entry at or
    /// past `slot_bin.len()` in a row is 0.
    rows: Vec<u64>,
    /// Bin held by each slot in use (live or [`DEAD`]), ascending.
    slot_bin: Vec<usize>,
    /// Slot of each bin opened this run (stale once it closes).
    bin_slot: Vec<usize>,
    /// Slots holding an open bin.
    live: usize,
}

impl ResidualBlocks {
    /// Creates an empty mirror.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all bins for a `dims`-dimensional run, keeping the arena
    /// allocation when the dimensionality is unchanged.
    pub(crate) fn reset(&mut self, dims: usize) {
        if self.dims == dims {
            let used = self.slot_bin.len();
            for j in 0..dims {
                self.rows[j * self.stride..j * self.stride + used].fill(0);
            }
        } else {
            self.rows.clear();
            self.stride = 0;
        }
        self.dims = dims;
        self.slot_bin.clear();
        self.bin_slot.clear();
        self.live = 0;
    }

    /// Slots a scan walks: open bins plus not-yet-compacted tombstones.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slot_bin.len()
    }

    /// Number of open bins.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Current residual of open `bin` in dimension `j`.
    #[must_use]
    pub fn residual(&self, bin: usize, j: usize) -> u64 {
        self.rows[j * self.stride + self.bin_slot[bin]]
    }

    /// Doubles the stride's capacity, re-striding existing rows in place
    /// and zeroing the vacated tails.
    fn grow(&mut self) {
        let old = self.stride;
        // A power of two plus one block: with power-of-two strides, the
        // same slot of every dimension maps to the same cache sets, and
        // a block scan's `d` row loads evict each other.
        let new = 2 * old.saturating_sub(LANES).max(INITIAL_STRIDE / 2) + LANES;
        debug_assert_eq!(new % LANES, 0);
        self.rows.resize(self.dims * new, 0);
        // Move rows from the back so no copy overwrites a row that has
        // not been moved yet (destination `j * new` is past every source
        // `j' * old + old` for `j' ≤ j`).
        for j in (1..self.dims).rev() {
            self.rows.copy_within(j * old..(j + 1) * old, j * new);
        }
        // Each row's tail `[j*new + old, (j+1)*new)` may hold stale data
        // from the old layout; padding must read as residual 0.
        for j in 0..self.dims {
            self.rows[j * new + old..(j + 1) * new].fill(0);
        }
        self.stride = new;
    }

    /// Registers a freshly opened bin with its initial residual vector
    /// in a new last slot. Bins open in id order, densely.
    pub(crate) fn open(&mut self, bin: usize, residual: &[u64]) {
        debug_assert_eq!(bin, self.bin_slot.len(), "bins must open in id order");
        self.bin_slot.push(self.slot_bin.len());
        self.append(bin, residual.iter().copied());
    }

    /// Re-registers a run's open bins from scratch: `open` lists them in
    /// ascending id, `bins` is how many the run has opened so far, and
    /// `residual(bin, j)` reads the authoritative load arena. How the
    /// engine latches a mirror it has not been maintaining.
    pub(crate) fn rebuild(
        &mut self,
        bins: usize,
        open: impl Iterator<Item = usize>,
        residual: impl Fn(usize, usize) -> u64,
    ) {
        self.reset(self.dims);
        // Closed bins keep a stale slot: they are never updated again.
        self.bin_slot.resize(bins, DEAD);
        for bin in open {
            self.bin_slot[bin] = self.slot_bin.len();
            self.append(bin, (0..self.dims).map(|j| residual(bin, j)));
        }
    }

    /// Puts open `bin` in a new last slot.
    fn append(&mut self, bin: usize, residual: impl Iterator<Item = u64>) {
        let slot = self.slot_bin.len();
        if slot == self.stride {
            self.grow();
        }
        self.slot_bin.push(bin);
        self.live += 1;
        for (j, r) in residual.enumerate() {
            self.rows[j * self.stride + slot] = r;
        }
    }

    /// Subtracts an item's size from open `bin`'s residual.
    pub(crate) fn pack(&mut self, bin: usize, size: &[u64]) {
        let slot = self.bin_slot[bin];
        for (j, &s) in size.iter().enumerate() {
            self.rows[j * self.stride + slot] -= s;
        }
    }

    /// Adds a departing item's size back to open `bin`'s residual.
    pub(crate) fn unpack(&mut self, bin: usize, size: &[u64]) {
        let slot = self.bin_slot[bin];
        for (j, &s) in size.iter().enumerate() {
            self.rows[j * self.stride + slot] += s;
        }
    }

    /// Turns a closing bin's slot into a zero-residual tombstone, so no
    /// block scan can ever select it again, and compacts once the
    /// tombstones outnumber both the live slots and one block's lanes
    /// (below one block, a scan reads a single block either way).
    pub(crate) fn close(&mut self, bin: usize) {
        let slot = self.bin_slot[bin];
        for j in 0..self.dims {
            self.rows[j * self.stride + slot] = 0;
        }
        self.slot_bin[slot] = DEAD;
        self.live -= 1;
        if self.slot_bin.len() - self.live > self.live.max(LANES) {
            self.compact();
        }
    }

    /// Stable in-place compaction: moves every live slot down over the
    /// tombstones, keeping ascending bin order, and zeroes the vacated
    /// tail. O(slots · d), run only once more than half the slots are
    /// tombstones, so amortized O(d) per close.
    #[cold]
    #[inline(never)]
    fn compact(&mut self) {
        let (stride, used) = (self.stride, self.slot_bin.len());
        let mut w = 0;
        for s in 0..used {
            let bin = self.slot_bin[s];
            if bin == DEAD {
                continue;
            }
            if w != s {
                for j in 0..self.dims {
                    self.rows[j * stride + w] = self.rows[j * stride + s];
                }
                self.slot_bin[w] = bin;
                self.bin_slot[bin] = w;
            }
            w += 1;
        }
        debug_assert_eq!(w, self.live);
        for j in 0..self.dims {
            self.rows[j * stride + w..j * stride + used].fill(0);
        }
        self.slot_bin.truncate(w);
    }

    /// Scalar reference predicate: `need ≤ residual` for every
    /// dimension of open `bin`. Used by tests and debug confirms.
    #[must_use]
    pub fn covers(&self, bin: usize, need: &[u64]) -> bool {
        let slot = self.bin_slot[bin];
        need.iter()
            .enumerate()
            .all(|(j, &n)| self.rows[j * self.stride + slot] >= n)
    }

    /// Feasibility mask for the aligned block starting at slot `base`:
    /// bit `l` is set iff slot `base + l` covers `need`.
    #[inline]
    fn mask8(&self, base: usize, need: &[u64]) -> u8 {
        debug_assert_eq!(base % LANES, 0);
        debug_assert!(base + LANES <= self.stride);
        mask8_dispatch(&self.rows, self.stride, base, need)
    }

    /// The open bin in a slot a mask hit selected. Tombstones and
    /// padding read 0 and `need` is nonzero somewhere, so a hit is
    /// always a live slot.
    #[inline]
    fn hit(&self, slot: usize) -> usize {
        let bin = self.slot_bin[slot];
        debug_assert_ne!(bin, DEAD, "block scan selected a tombstone");
        bin
    }

    /// Lowest-id open bin that covers `need`, or `None`.
    #[must_use]
    pub fn first_feasible(&self, need: &[u64]) -> Option<usize> {
        debug_assert!(need.iter().any(|&n| n > 0), "zero need matches tombstones");
        let mut base = 0;
        while base < self.slot_bin.len() {
            let m = self.mask8(base, need);
            if m != 0 {
                return Some(self.hit(base + m.trailing_zeros() as usize));
            }
            base += LANES;
        }
        None
    }

    /// Highest-id open bin that covers `need`, or `None`.
    #[must_use]
    pub fn last_feasible(&self, need: &[u64]) -> Option<usize> {
        debug_assert!(need.iter().any(|&n| n > 0), "zero need matches tombstones");
        let mut end = self.slot_bin.len().next_multiple_of(LANES);
        while end > 0 {
            end -= LANES;
            let m = self.mask8(end, need);
            if m != 0 {
                return Some(self.hit(end + 7 - m.leading_zeros() as usize));
            }
        }
        None
    }

    /// Calls `f` for every open bin covering `need`, in ascending id
    /// order (the order the scalar scan visits open bins).
    pub fn for_each_feasible(&self, need: &[u64], mut f: impl FnMut(usize)) {
        debug_assert!(need.iter().any(|&n| n > 0), "zero need matches tombstones");
        let mut base = 0;
        while base < self.slot_bin.len() {
            let mut m = self.mask8(base, need);
            while m != 0 {
                f(self.hit(base + m.trailing_zeros() as usize));
                m &= m - 1;
            }
            base += LANES;
        }
    }
}

/// Backend-selecting mask kernel: bit `l` of the result is set iff
/// `rows[j * stride + base + l] >= need[j]` for every `j`.
#[inline]
pub(crate) fn mask8_dispatch(rows: &[u64], stride: usize, base: usize, need: &[u64]) -> u8 {
    #[cfg(target_arch = "x86_64")]
    {
        // Cached cpuid probe: one relaxed atomic load per call.
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence was just verified.
            return unsafe { mask8_avx2(rows, stride, base, need) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return mask8_neon(rows, stride, base, need);
    }
    #[allow(unreachable_code)]
    mask8_portable(rows, stride, base, need)
}

/// Portable branchless backend: explicit unrolled lanes with mask
/// accumulation, shaped so LLVM can autovectorize the inner loop.
#[inline]
pub(crate) fn mask8_portable(rows: &[u64], stride: usize, base: usize, need: &[u64]) -> u8 {
    let mut ok = [true; LANES];
    for (j, &n) in need.iter().enumerate() {
        let row = &rows[j * stride + base..j * stride + base + LANES];
        for l in 0..LANES {
            ok[l] &= row[l] >= n;
        }
    }
    let mut mask = 0u8;
    for (l, &o) in ok.iter().enumerate() {
        mask |= u8::from(o) << l;
    }
    mask
}

/// AVX2 backend: two 4×u64 vectors per dimension row, unsigned `>=` via
/// the sign-flip trick over `_mm256_cmpgt_epi64`, mask accumulated with
/// `andnot`. Bit-identical to [`mask8_portable`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn mask8_avx2(rows: &[u64], stride: usize, base: usize, need: &[u64]) -> u8 {
    use core::arch::x86_64::{
        _mm256_andnot_si256, _mm256_castsi256_pd, _mm256_cmpgt_epi64, _mm256_loadu_si256,
        _mm256_movemask_pd, _mm256_set1_epi64x, _mm256_xor_si256,
    };
    debug_assert!(base + LANES <= stride && need.len() * stride <= rows.len());
    let sign = _mm256_set1_epi64x(i64::MIN);
    let mut ok_lo = _mm256_set1_epi64x(-1);
    let mut ok_hi = _mm256_set1_epi64x(-1);
    for (j, &n) in need.iter().enumerate() {
        let p = rows.as_ptr().add(j * stride + base);
        let r_lo = _mm256_xor_si256(_mm256_loadu_si256(p.cast()), sign);
        let r_hi = _mm256_xor_si256(_mm256_loadu_si256(p.add(4).cast()), sign);
        #[allow(clippy::cast_possible_wrap)]
        let nv = _mm256_xor_si256(_mm256_set1_epi64x(n as i64), sign);
        // violated = need > residual (signed compare on biased values);
        // ok &= !violated.
        ok_lo = _mm256_andnot_si256(_mm256_cmpgt_epi64(nv, r_lo), ok_lo);
        ok_hi = _mm256_andnot_si256(_mm256_cmpgt_epi64(nv, r_hi), ok_hi);
    }
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let (lo, hi) = (
        _mm256_movemask_pd(_mm256_castsi256_pd(ok_lo)) as u8 & 0x0f,
        _mm256_movemask_pd(_mm256_castsi256_pd(ok_hi)) as u8 & 0x0f,
    );
    lo | (hi << 4)
}

/// NEON backend (`aarch64`, where NEON is baseline): four 2×u64 vectors
/// per dimension row with native unsigned `vcgeq_u64` compares.
/// Bit-identical to [`mask8_portable`].
#[cfg(target_arch = "aarch64")]
#[inline]
pub(crate) fn mask8_neon(rows: &[u64], stride: usize, base: usize, need: &[u64]) -> u8 {
    use core::arch::aarch64::{vandq_u64, vcgeq_u64, vdupq_n_u64, vgetq_lane_u64, vld1q_u64};
    debug_assert!(base + LANES <= stride && need.len() * stride <= rows.len());
    // SAFETY: NEON is mandatory on aarch64; loads stay inside `rows` by
    // the bound check above.
    unsafe {
        let mut acc = [vdupq_n_u64(u64::MAX); 4];
        for (j, &n) in need.iter().enumerate() {
            let nv = vdupq_n_u64(n);
            let p = rows.as_ptr().add(j * stride + base);
            for (k, a) in acc.iter_mut().enumerate() {
                *a = vandq_u64(*a, vcgeq_u64(vld1q_u64(p.add(2 * k)), nv));
            }
        }
        let mut mask = 0u8;
        for (k, a) in acc.iter().enumerate() {
            mask |= ((vgetq_lane_u64::<0>(*a) & 1) as u8) << (2 * k);
            mask |= ((vgetq_lane_u64::<1>(*a) & 1) as u8) << (2 * k + 1);
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Builds a mirror holding `residuals[bin][j]` for open bins.
    fn mirror(dims: usize, residuals: &[Vec<u64>]) -> ResidualBlocks {
        let mut blocks = ResidualBlocks::new();
        blocks.reset(dims);
        for (b, r) in residuals.iter().enumerate() {
            blocks.open(b, r);
        }
        blocks
    }

    /// `true` iff `residual` covers `need` in every dimension.
    fn fits(residual: &[u64], need: &[u64]) -> bool {
        need.iter().zip(residual).all(|(&n, &r)| r >= n)
    }

    /// Naive ascending-id scan over the `open` bins of a residual model.
    fn naive_feasible(model: &[Vec<u64>], open: &[usize], need: &[u64]) -> Vec<usize> {
        open.iter()
            .copied()
            .filter(|&b| fits(&model[b], need))
            .collect()
    }

    /// xorshift64*: cheap deterministic values for the property tests.
    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed | 1;
        move |bound| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        }
    }

    #[test]
    fn lifecycle_updates_mirror() {
        let mut blocks = mirror(2, &[vec![10, 10], vec![4, 8]]);
        blocks.pack(0, &[3, 5]);
        assert_eq!(blocks.residual(0, 0), 7);
        assert_eq!(blocks.residual(0, 1), 5);
        blocks.unpack(0, &[3, 5]);
        assert_eq!(blocks.residual(0, 0), 10);
        blocks.close(0);
        assert_eq!(blocks.live(), 1);
        assert_eq!(blocks.first_feasible(&[1, 1]), Some(1));
    }

    #[test]
    fn growth_restrides_and_preserves_residuals() {
        let mut blocks = ResidualBlocks::new();
        blocks.reset(3);
        let n = 5 * INITIAL_STRIDE + 3;
        for b in 0..n {
            let b64 = b as u64;
            blocks.open(b, &[b64 + 1, 2 * b64 + 1, 7]);
        }
        for b in 0..n {
            let b64 = b as u64;
            assert_eq!(blocks.residual(b, 0), b64 + 1);
            assert_eq!(blocks.residual(b, 1), 2 * b64 + 1);
            assert_eq!(blocks.residual(b, 2), 7);
        }
        // The unique bin with residual exactly [n, 2n-1, 7] is the last.
        let n64 = n as u64;
        assert_eq!(blocks.first_feasible(&[n64, 2 * n64 - 1, 7]), Some(n - 1));
    }

    /// Padding lanes read residual 0 and can never be selected, at bin
    /// counts just below, at, and above a lane boundary — and after
    /// closes.
    #[test]
    fn padding_lanes_are_never_selected() {
        for m in [LANES - 1, LANES, LANES + 1, 2 * LANES - 1, 2 * LANES + 1] {
            let residuals: Vec<Vec<u64>> = (0..m).map(|_| vec![5, 5]).collect();
            let mut blocks = mirror(2, &residuals);
            // Everything feasible: hits must stay within 0..m.
            let mut seen = Vec::new();
            blocks.for_each_feasible(&[1, 1], |b| seen.push(b));
            assert_eq!(seen, (0..m).collect::<Vec<_>>(), "m={m}");
            assert_eq!(blocks.last_feasible(&[1, 1]), Some(m - 1));
            // Close every bin: nothing is feasible, padding included.
            for b in 0..m {
                blocks.close(b);
            }
            assert_eq!(blocks.first_feasible(&[1, 1]), None, "m={m}");
            assert_eq!(blocks.last_feasible(&[1, 1]), None, "m={m}");
            assert!(blocks.slots() <= LANES, "m={m}: tombstones compacted");
        }
    }

    /// Closing bins in id order keeps the tombstones within
    /// `max(live, LANES)`: they are compacted away, and survivors keep
    /// their residuals and ascending order.
    #[test]
    fn compaction_bounds_slots_by_live_bins() {
        let n = 300;
        let residuals: Vec<Vec<u64>> = (0..n as u64).map(|b| vec![b + 1]).collect();
        let mut blocks = mirror(1, &residuals);
        for b in 0..n - 10 {
            blocks.close(b);
            let dead = blocks.slots() - blocks.live();
            assert!(dead <= blocks.live().max(LANES), "after closing {b}");
        }
        assert_eq!(blocks.live(), 10);
        let mut seen = Vec::new();
        blocks.for_each_feasible(&[1], |b| seen.push(b));
        assert_eq!(seen, (n - 10..n).collect::<Vec<_>>());
        assert_eq!(blocks.first_feasible(&[n as u64 - 4]), Some(n - 5));
        assert_eq!(blocks.residual(n - 1, 0), n as u64);
    }

    #[test]
    fn reset_keeps_arena_and_clears_bins() {
        let mut blocks = mirror(2, &[vec![9, 9]]);
        blocks.reset(2);
        assert_eq!(blocks.slots(), 0);
        assert_eq!(blocks.first_feasible(&[1, 1]), None);
        blocks.open(0, &[3, 3]);
        assert_eq!(blocks.first_feasible(&[1, 1]), Some(0));
        // Dimensionality change rebuilds the arena.
        blocks.reset(5);
        blocks.open(0, &[1, 2, 3, 4, 5]);
        assert_eq!(blocks.residual(0, 4), 5);
    }

    /// Adversarial boundary values: every backend must agree with the
    /// scalar predicate on 0, `u64::MAX`, and exact-equality residuals.
    #[test]
    fn mask_backends_agree_on_boundary_values() {
        let vals = [0u64, 1, u64::MAX - 1, u64::MAX];
        let stride = LANES;
        for d in [1usize, 2, 3] {
            let mut rows = vec![0u64; d * stride];
            for (i, slot) in rows.iter_mut().enumerate() {
                *slot = vals[(i * 7 + i / 3) % vals.len()];
            }
            for &n0 in &vals {
                for &n1 in &vals {
                    let need: Vec<u64> = (0..d).map(|j| if j % 2 == 0 { n0 } else { n1 }).collect();
                    let expect: u8 = (0..LANES)
                        .map(|l| u8::from((0..d).all(|j| rows[j * stride + l] >= need[j])) << l)
                        .sum();
                    assert_eq!(mask8_portable(&rows, stride, 0, &need), expect);
                    assert_eq!(mask8_dispatch(&rows, stride, 0, &need), expect);
                    #[cfg(target_arch = "x86_64")]
                    if std::arch::is_x86_feature_detected!("avx2") {
                        assert_eq!(unsafe { mask8_avx2(&rows, stride, 0, &need) }, expect);
                    }
                }
            }
        }
    }

    proptest! {
        /// Block-scan feasibility ≡ the scalar predicate on adversarial
        /// residual/need vectors, across every compiled backend.
        #[test]
        fn mask_matches_scalar_reference(
            d in 1usize..=16,
            row_picks in prop::collection::vec(0usize..5, 16 * LANES),
            need_picks in prop::collection::vec(0usize..5, 16),
            mix in 0u64..u64::MAX,
        ) {
            // Adversarial palette: zero, one, both u64 extremes, plus a
            // pseudo-random filler derived from `mix` and the position.
            let pick = |choice: usize, i: usize| -> u64 {
                match choice {
                    0 => 0,
                    1 => 1,
                    2 => u64::MAX - 1,
                    3 => u64::MAX,
                    _ => mix.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64),
                }
            };
            let stride = LANES;
            let rows: Vec<u64> = row_picks[..d * stride]
                .iter()
                .enumerate()
                .map(|(i, &c)| pick(c, i))
                .collect();
            let need_raw: Vec<u64> = need_picks
                .iter()
                .enumerate()
                .map(|(i, &c)| pick(c, i + 7))
                .collect();
            // Equal-boundary stress: echo some residuals into the need.
            let need: Vec<u64> = (0..d)
                .map(|j| if j % 3 == 0 { rows[j * stride + j % LANES] } else { need_raw[j] })
                .collect();
            let expect: u8 = (0..LANES)
                .map(|l| u8::from((0..d).all(|j| rows[j * stride + l] >= need[j])) << l)
                .sum();
            prop_assert_eq!(mask8_portable(&rows, stride, 0, &need), expect);
            prop_assert_eq!(mask8_dispatch(&rows, stride, 0, &need), expect);
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                prop_assert_eq!(unsafe { mask8_avx2(&rows, stride, 0, &need) }, expect);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The compacted mirror under random open/pack/unpack/close
        /// sequences, with an occasional rebuild from scratch: after
        /// every step, first/last/all-feasible equal a naive
        /// ascending-id scan over the open bins. Each sequence ramps
        /// past two stride doublings, churns, then drains, so it crosses
        /// growth and many compactions; closes favour the first and last
        /// live slot, the edges compaction moves.
        #[test]
        fn lifecycle_matches_naive_open_bin_scan(
            d in 1usize..=9,
            peak in 1usize..=3 * INITIAL_STRIDE,
            seed in 0u64..u64::MAX,
        ) {
            let mut next = rng(seed);
            let cap = 16u64;
            let mut blocks = ResidualBlocks::new();
            blocks.reset(d);
            let mut model: Vec<Vec<u64>> = Vec::new();
            let mut open: Vec<usize> = Vec::new();
            let mut need = vec![0u64; d];
            let steps = 6 * peak + 40;
            for step in 0..steps {
                let phase = step * 3 / steps; // ramp, churn, drain
                if next(50) == 0 {
                    // Latch from scratch, as the engine does mid-run.
                    blocks.rebuild(model.len(), open.iter().copied(), |b, j| model[b][j]);
                }
                let roll = next(10);
                let opens = match phase {
                    0 => roll < 6 || open.is_empty(),
                    1 => roll < 3 || open.is_empty(),
                    _ => open.is_empty() && model.len() < peak,
                };
                if opens && open.len() < peak {
                    let r: Vec<u64> = (0..d).map(|_| next(cap + 1)).collect();
                    blocks.open(model.len(), &r);
                    open.push(model.len());
                    model.push(r);
                } else if let Some(&last) = open.last() {
                    let k = match next(4) {
                        0 => 0,
                        1 => open.len() - 1,
                        _ => usize::try_from(next(open.len() as u64)).unwrap(),
                    };
                    let bin = if phase == 2 { last } else { open[k] };
                    let res = &mut model[bin];
                    match next(3) {
                        0 => {
                            let s: Vec<u64> = res.iter().map(|&r| next(r + 1)).collect();
                            blocks.pack(bin, &s);
                            res.iter_mut().zip(&s).for_each(|(r, s)| *r -= s);
                        }
                        1 if phase < 2 => {
                            let s: Vec<u64> = res.iter().map(|&r| next(cap - r + 1)).collect();
                            blocks.unpack(bin, &s);
                            res.iter_mut().zip(&s).for_each(|(r, s)| *r += s);
                        }
                        _ => {
                            blocks.close(bin);
                            open.retain(|&b| b != bin);
                        }
                    }
                }
                prop_assert_eq!(blocks.live(), open.len());
                let dead = blocks.slots() - open.len();
                prop_assert!(dead <= open.len().max(LANES), "{} tombstones left", dead);
                for _ in 0..2 {
                    need.iter_mut().for_each(|n| *n = next(cap + 1));
                    if need.iter().all(|&n| n == 0) {
                        need[0] = 1;
                    }
                    let expect = naive_feasible(&model, &open, &need);
                    let mut hits = Vec::new();
                    blocks.for_each_feasible(&need, |b| hits.push(b));
                    prop_assert_eq!(&hits, &expect);
                    prop_assert_eq!(blocks.first_feasible(&need), expect.first().copied());
                    prop_assert_eq!(blocks.last_feasible(&need), expect.last().copied());
                }
            }
            prop_assert!(blocks.slots() <= LANES, "a drained mirror keeps tombstones");
        }
    }
}

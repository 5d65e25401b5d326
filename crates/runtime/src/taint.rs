//! Value-level dynamic taint, the DataFlowSanitizer substitute.
//!
//! A taint label is the id of a *PM inconsistency candidate* (a load that
//! observed non-persisted data, §4.3). Values loaded from PM carry a
//! [`TaintSet`]; arithmetic and concatenation union the sets, so by the time
//! a value (or a computed address) reaches a PM store, the store hook can
//! tell exactly which candidate reads it depends on — the two data-flow
//! classes the paper checks (tainted *contents* and tainted *addresses*).

use std::fmt;
use std::ops::{Add, BitAnd, BitOr, BitXor, Mul, Rem, Shl, Shr, Sub};

/// Labels a set holds without a heap buffer. Nearly every tainted value
/// depends on one or two candidates, and target code clones tainted words
/// freely, so small sets must not allocate.
const INLINE: usize = 3;

/// Sorted, deduplicated labels: inline up to [`INLINE`] of them, on the
/// heap beyond. A heap set stays on the heap when it shrinks (a shadow
/// granule's taint is overwritten in place), so compare through
/// [`Labels::as_slice`], never the representation.
#[derive(Clone)]
enum Labels {
    Inline { len: u8, buf: [u32; INLINE] },
    Heap(Vec<u32>),
}

impl Labels {
    fn as_slice(&self) -> &[u32] {
        match self {
            Labels::Inline { len, buf } => &buf[..*len as usize],
            Labels::Heap(v) => v,
        }
    }
}

/// Set of candidate ids a value depends on. Small and usually empty; stored
/// sorted and deduplicated, inline while it is small.
pub struct TaintSet {
    labels: Labels,
}

impl Default for TaintSet {
    fn default() -> Self {
        TaintSet {
            labels: Labels::Inline {
                len: 0,
                buf: [0; INLINE],
            },
        }
    }
}

impl Clone for TaintSet {
    fn clone(&self) -> Self {
        match &self.labels {
            Labels::Heap(v) if v.len() <= INLINE => {
                let mut out = TaintSet::empty();
                out.clone_from(self);
                out
            }
            labels => TaintSet {
                labels: labels.clone(),
            },
        }
    }

    /// Reuses `self`'s buffer: shadow memory overwrites a granule's taint
    /// in place on every tainted store.
    fn clone_from(&mut self, source: &Self) {
        let src = source.as_slice();
        match &mut self.labels {
            Labels::Heap(v) => {
                v.clear();
                v.extend_from_slice(src);
            }
            inline if src.len() <= INLINE => {
                let mut buf = [0; INLINE];
                buf[..src.len()].copy_from_slice(src);
                *inline = Labels::Inline {
                    len: src.len() as u8,
                    buf,
                };
            }
            labels => *labels = Labels::Heap(src.to_vec()),
        }
    }
}

impl fmt::Debug for TaintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaintSet")
            .field("labels", &self.as_slice())
            .finish()
    }
}

impl PartialEq for TaintSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for TaintSet {}

impl std::hash::Hash for TaintSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl TaintSet {
    /// The empty set (untainted).
    #[must_use]
    pub fn empty() -> Self {
        TaintSet::default()
    }

    /// A singleton set.
    #[must_use]
    pub fn single(label: u32) -> Self {
        let mut s = TaintSet::empty();
        s.insert(label);
        s
    }

    /// The labels, ascending.
    fn as_slice(&self) -> &[u32] {
        self.labels.as_slice()
    }

    /// `true` when the value carries no taint.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Remove every label, keeping the buffer.
    pub fn clear(&mut self) {
        match &mut self.labels {
            Labels::Inline { len, .. } => *len = 0,
            Labels::Heap(v) => v.clear(),
        }
    }

    /// Number of labels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, label: u32) -> bool {
        self.as_slice().binary_search(&label).is_ok()
    }

    /// Union in-place.
    pub fn union_with(&mut self, other: &TaintSet) {
        match (self.is_empty(), other.as_slice()) {
            (_, []) => {}
            (true, _) => self.clone_from(other),
            (false, labels) => {
                for &l in labels {
                    self.insert(l);
                }
            }
        }
    }

    /// Union, producing a new set.
    #[must_use]
    pub fn union(&self, other: &TaintSet) -> TaintSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Add one label.
    pub fn insert(&mut self, label: u32) {
        let Err(pos) = self.as_slice().binary_search(&label) else {
            return;
        };
        match &mut self.labels {
            Labels::Inline { len, buf } if (*len as usize) < INLINE => {
                let n = *len as usize;
                buf.copy_within(pos..n, pos + 1);
                buf[pos] = label;
                *len += 1;
            }
            Labels::Inline { buf, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE);
                v.extend_from_slice(buf);
                v.insert(pos, label);
                self.labels = Labels::Heap(v);
            }
            Labels::Heap(v) => v.insert(pos, label),
        }
    }

    /// Iterate over labels in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.as_slice().iter().copied()
    }
}

impl fmt::Display for TaintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, l) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "c{l}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<u32> for TaintSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut s = TaintSet::empty();
        for l in iter {
            s.insert(l);
        }
        s
    }
}

/// A tainted 64-bit word: the unit of PM data flow in target code.
///
/// Equality and ordering compare the *value* only — taint is metadata, and
/// target algorithms must behave identically whether or not data happens to
/// be tainted (the instrumentation must not perturb control flow).
#[derive(Debug, Clone, Default)]
pub struct TU64 {
    val: u64,
    taint: TaintSet,
}

impl TU64 {
    /// Wrap a value with explicit taint.
    #[must_use]
    pub fn with_taint(val: u64, taint: TaintSet) -> Self {
        TU64 { val, taint }
    }

    /// The numeric value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.val
    }

    /// The taint labels.
    #[must_use]
    pub fn taint(&self) -> &TaintSet {
        &self.taint
    }

    /// `true` if the value depends on non-persisted data.
    #[must_use]
    pub fn is_tainted(&self) -> bool {
        !self.taint.is_empty()
    }

    /// Map the numeric value, keeping taint (e.g. masking bits).
    #[must_use]
    pub fn map<F: FnOnce(u64) -> u64>(self, f: F) -> TU64 {
        TU64 {
            val: f(self.val),
            taint: self.taint,
        }
    }
}

impl From<u64> for TU64 {
    fn from(val: u64) -> Self {
        TU64 {
            val,
            taint: TaintSet::empty(),
        }
    }
}

impl PartialEq for TU64 {
    fn eq(&self, other: &Self) -> bool {
        self.val == other.val
    }
}
impl Eq for TU64 {}

impl PartialEq<u64> for TU64 {
    fn eq(&self, other: &u64) -> bool {
        self.val == *other
    }
}

impl PartialOrd for TU64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.val.cmp(&other.val))
    }
}

impl PartialOrd<u64> for TU64 {
    fn partial_cmp(&self, other: &u64) -> Option<std::cmp::Ordering> {
        Some(self.val.cmp(other))
    }
}

impl fmt::Display for TU64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.taint.is_empty() {
            write!(f, "{}", self.val)
        } else {
            write!(f, "{}~{}", self.val, self.taint)
        }
    }
}

macro_rules! impl_bin_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for TU64 {
            type Output = TU64;
            fn $method(self, rhs: TU64) -> TU64 {
                let mut taint = self.taint;
                taint.union_with(&rhs.taint);
                TU64 {
                    val: self.val $op rhs.val,
                    taint,
                }
            }
        }
        impl $trait<u64> for TU64 {
            type Output = TU64;
            fn $method(self, rhs: u64) -> TU64 {
                TU64 { val: self.val $op rhs, taint: self.taint }
            }
        }
        impl $trait<TU64> for u64 {
            type Output = TU64;
            fn $method(self, rhs: TU64) -> TU64 {
                TU64 { val: self $op rhs.val, taint: rhs.taint }
            }
        }
    };
}

impl_bin_op!(Add, add, +);
impl_bin_op!(Sub, sub, -);
impl_bin_op!(Mul, mul, *);
impl_bin_op!(Rem, rem, %);
impl_bin_op!(BitAnd, bitand, &);
impl_bin_op!(BitOr, bitor, |);
impl_bin_op!(BitXor, bitxor, ^);
impl_bin_op!(Shl, shl, <<);
impl_bin_op!(Shr, shr, >>);

/// A tainted byte buffer (item values, keys). One taint set covers the whole
/// buffer — byte-precise shadow memory is unnecessary at the granularity the
/// checkers reason about.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TBytes {
    bytes: Vec<u8>,
    taint: TaintSet,
}

impl TBytes {
    /// Wrap bytes with explicit taint.
    #[must_use]
    pub fn with_taint(bytes: Vec<u8>, taint: TaintSet) -> Self {
        TBytes { bytes, taint }
    }

    /// The raw bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Buffer length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` when the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The taint labels.
    #[must_use]
    pub fn taint(&self) -> &TaintSet {
        &self.taint
    }

    /// `true` if the contents depend on non-persisted data.
    #[must_use]
    pub fn is_tainted(&self) -> bool {
        !self.taint.is_empty()
    }

    /// Concatenate, unioning taint.
    #[must_use]
    pub fn concat(&self, other: &TBytes) -> TBytes {
        let mut bytes = self.bytes.clone();
        bytes.extend_from_slice(&other.bytes);
        TBytes {
            bytes,
            taint: self.taint.union(&other.taint),
        }
    }

    /// Consume, returning the raw bytes (dropping taint — only for use at
    /// program boundaries the checkers have already inspected).
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

impl From<Vec<u8>> for TBytes {
    fn from(bytes: Vec<u8>) -> Self {
        TBytes {
            bytes,
            taint: TaintSet::empty(),
        }
    }
}

impl From<&[u8]> for TBytes {
    fn from(bytes: &[u8]) -> Self {
        TBytes {
            bytes: bytes.to_vec(),
            taint: TaintSet::empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_is_sorted_and_deduped() {
        let mut a = TaintSet::single(5);
        a.union_with(&TaintSet::single(2));
        a.union_with(&TaintSet::single(5));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![2, 5]);
        assert!(a.contains(2));
        assert!(!a.contains(3));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn inline_and_heap_sets_match_a_btreeset() {
        // Random inserts, unions, in-place overwrites and clears across the
        // inline/heap boundary, checked against the obvious reference.
        use std::collections::BTreeSet;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut sets = vec![TaintSet::empty(); 4];
        let mut refs = vec![BTreeSet::new(); 4];
        for _ in 0..4000 {
            let (i, j) = (next(4) as usize, next(4) as usize);
            match next(5) {
                0 | 1 => {
                    let l = next(12) as u32;
                    sets[i].insert(l);
                    refs[i].insert(l);
                }
                2 => {
                    let other = sets[j].clone();
                    sets[i].union_with(&other);
                    let other = refs[j].clone();
                    refs[i].extend(other);
                }
                3 => {
                    let src = sets[j].clone();
                    sets[i].clone_from(&src);
                    refs[i] = refs[j].clone();
                }
                _ => {
                    sets[i].clear();
                    refs[i].clear();
                }
            }
            let want: Vec<u32> = refs[i].iter().copied().collect();
            assert_eq!(sets[i].iter().collect::<Vec<_>>(), want);
            assert_eq!(sets[i].len(), want.len());
            assert_eq!(sets[i], want.iter().copied().collect::<TaintSet>());
            assert!(want.iter().all(|&l| sets[i].contains(l)));
        }
    }

    #[test]
    fn from_iterator_collects() {
        let s: TaintSet = [3u32, 1, 3, 2].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn arithmetic_propagates_taint() {
        let a = TU64::with_taint(10, TaintSet::single(1));
        let b = TU64::with_taint(4, TaintSet::single(2));
        let c = a + b;
        assert_eq!(c.value(), 14);
        assert!(c.taint().contains(1) && c.taint().contains(2));
        let d = c.clone() * 2u64;
        assert_eq!(d.value(), 28);
        assert_eq!(d.taint(), c.taint());
        let e = 100u64 - d;
        assert_eq!(e.value(), 72);
        assert!(e.is_tainted());
    }

    #[test]
    fn bit_ops_and_shifts_propagate_taint() {
        let a = TU64::with_taint(0b1100, TaintSet::single(9));
        assert_eq!((a.clone() & 0b0100u64).value(), 0b0100);
        assert_eq!((a.clone() | 1u64).value(), 0b1101);
        assert_eq!((a.clone() ^ 0b1111u64).value(), 0b0011);
        assert_eq!((a.clone() << 1u64).value(), 0b11000);
        assert_eq!((a.clone() >> 2u64).value(), 0b11);
        assert_eq!((a % 5u64).value(), 2);
    }

    #[test]
    fn comparisons_ignore_taint() {
        let a = TU64::with_taint(7, TaintSet::single(1));
        let b = TU64::from(7);
        assert_eq!(a, b);
        assert_eq!(a, 7u64);
        assert!(a > 6u64);
        assert!(a < 8u64);
    }

    #[test]
    fn map_keeps_taint() {
        let a = TU64::with_taint(0xff00, TaintSet::single(3));
        let b = a.map(|v| v >> 8);
        assert_eq!(b.value(), 0xff);
        assert!(b.taint().contains(3));
    }

    #[test]
    fn tbytes_concat_unions_taint() {
        let a = TBytes::with_taint(vec![1, 2], TaintSet::single(1));
        let b = TBytes::with_taint(vec![3], TaintSet::single(2));
        let c = a.concat(&b);
        assert_eq!(c.bytes(), &[1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert!(c.taint().contains(1) && c.taint().contains(2));
        assert!(!TBytes::from(vec![9u8]).is_tainted());
    }

    #[test]
    fn display_shows_taint() {
        let a = TU64::with_taint(5, TaintSet::single(8));
        assert_eq!(a.to_string(), "5~{c8}");
        assert_eq!(TU64::from(5).to_string(), "5");
    }
}

//! Bitsets over routers, nodes or lanes. The cycle kernels keep one per
//! live set and walk its words in ascending index order, so a cycle
//! visits only what holds traffic.

/// Words of a bitset over `n` indices.
pub(crate) fn words(n: usize) -> usize {
    n.div_ceil(64)
}

/// Adds index `i` to `set`.
pub(crate) fn insert(set: &mut [u64], i: usize) {
    set[i / 64] |= 1 << (i % 64);
}

/// Removes index `i` from `set`.
pub(crate) fn remove(set: &mut [u64], i: usize) {
    set[i / 64] &= !(1 << (i % 64));
}

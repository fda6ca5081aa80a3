//! Receive vectors and stability vectors (§4.1, §5.1).
//!
//! Both are per-group maps from member to a message number:
//!
//! * the **receive vector** `RV_{x,i}[j]` records the number of the latest
//!   message received from `P_j` in group `g_x`; its minimum is the
//!   group-local deliverability bound `D_{x,i}`;
//! * the **stability vector** `SV_{x,i}[j]` records the latest `m.ldn`
//!   piggybacked by `P_j`; its minimum bounds the stable prefix — messages
//!   at or below it have been received by every member and may be discarded.
//!
//! View-installation step (viii) sets entries of failed processes to ∞ so
//! the minima are no longer held back by the departed.
//!
//! # Representation and cost model
//!
//! The minimum of these vectors is consulted on **every** receive (the
//! deliverability bound `D` and the stability prefix), so the paper's §6
//! "low and bounded per-message cost" claim lives or dies here. Entries are
//! stored as a dense `Vec<Msn>` indexed through a sorted member-index table
//! (members are fixed at view installation, so the table never reallocates
//! between views), with a **cached running minimum** maintained
//! hierarchically: a flat tournament tree caches the minimum of every
//! entry-pair subtree, and an `advance` invalidates only the cached values
//! along the path from the changed entry to the root — it stops as soon as
//! a cached value is unaffected, so the cache is only ever torn down when
//! the argmin entry itself advances or a member is set to ∞ (step viii).
//!
//! Resulting costs: [`MsnVector::min_live`] is O(1) (root read). Ops keyed
//! by member ([`MsnVector::advance`], [`MsnVector::min_live_excluding`],
//! [`MsnVector::get`]) pay an O(log n) binary search on the member-index
//! table (≈8 well-predicted probes of a contiguous array at n = 256); the
//! engine's receive path looks a sender's slot up once and uses the
//! slot-based `*_at` forms for the rest. On top of the lookup,
//! `advance`'s cache maintenance is O(1) amortized
//! (the propagation loop breaks at the first unchanged cache node,
//! O(log n) worst-case) and `min_live_excluding` is O(1) unless the
//! excluded member holds the minimum (rare — the engine excludes the
//! local member, whose own entry tracks its logical clock), in which case
//! it recombines O(log n) cached sibling minima. Nothing on these paths
//! allocates.

use newtop_types::{Msn, ProcessId};
use std::hash::{Hash, Hasher};

/// A per-member vector of message numbers with an ∞-aware minimum.
///
/// # Examples
///
/// ```
/// use newtop_core::MsnVector;
/// use newtop_types::{Msn, ProcessId};
///
/// let mut rv = MsnVector::new([ProcessId(1), ProcessId(2)]);
/// assert_eq!(rv.min_live(), Msn(0));
/// rv.advance(ProcessId(1), Msn(4));
/// rv.advance(ProcessId(2), Msn(9));
/// assert_eq!(rv.min_live(), Msn(4));
/// rv.set_infinite(ProcessId(1)); // step (viii): P1 agreed failed
/// assert_eq!(rv.min_live(), Msn(9));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MsnVector {
    /// Member identifiers, sorted ascending — the member-index table.
    ids: Vec<ProcessId>,
    /// `entries[i]` is the number recorded for `ids[i]` (∞ = excluded).
    entries: Vec<Msn>,
    /// Tournament tree over the entries: `tree[1]` is the overall minimum,
    /// `tree[leaf_base + i]` mirrors `entries[i]`, and every inner node
    /// caches the minimum of its two children. Empty for empty vectors.
    tree: Vec<Msn>,
    /// Index of the first leaf in `tree` (a power of two).
    leaf_base: usize,
}

impl MsnVector {
    /// Creates a vector with one zero entry per member.
    pub fn new<I: IntoIterator<Item = ProcessId>>(members: I) -> MsnVector {
        let mut ids: Vec<ProcessId> = members.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        let entries = vec![Msn::ZERO; ids.len()];
        let mut v = MsnVector {
            ids,
            entries,
            tree: Vec::new(),
            leaf_base: 0,
        };
        v.rebuild_tree();
        v
    }

    /// Rebuilds the cached-minimum tree from scratch (construction and
    /// membership removal only; never on the per-message path).
    fn rebuild_tree(&mut self) {
        let n = self.entries.len();
        if n == 0 {
            self.tree.clear();
            self.leaf_base = 0;
            return;
        }
        let base = n.next_power_of_two();
        self.tree.clear();
        self.tree.resize(2 * base, Msn::INFINITY);
        self.tree[base..base + n].copy_from_slice(&self.entries);
        for i in (1..base).rev() {
            self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
        }
        self.leaf_base = base;
    }

    /// Raises the cached value at leaf `i` to `c` and re-validates ancestor
    /// caches, stopping at the first one the change does not affect.
    fn raise_leaf(&mut self, i: usize, c: Msn) {
        let mut node = self.leaf_base + i;
        self.tree[node] = c;
        while node > 1 {
            node /= 2;
            let m = self.tree[2 * node].min(self.tree[2 * node + 1]);
            if self.tree[node] == m {
                break; // this cache (and all above it) is still valid
            }
            self.tree[node] = m;
        }
    }

    /// `p`'s slot: its position in the member-index table, valid for the
    /// slot-based [`MsnVector::get_at`] / [`MsnVector::advance_at`] until
    /// the next [`MsnVector::remove`]. Two vectors built over the same
    /// members (and losing the same ones) share their slots.
    #[inline]
    #[must_use]
    pub(crate) fn slot(&self, p: ProcessId) -> Option<usize> {
        self.ids.binary_search(&p).ok()
    }

    /// The tracked members in ascending order; `members()[slot]` is the
    /// member at `slot`.
    #[must_use]
    pub(crate) fn members(&self) -> &[ProcessId] {
        &self.ids
    }

    /// The recorded number for `p` (zero if absent).
    #[must_use]
    pub fn get(&self, p: ProcessId) -> Msn {
        self.slot(p).map_or(Msn::ZERO, |i| self.get_at(i))
    }

    /// The recorded number at `slot` (see [`MsnVector::slot`]).
    ///
    /// # Panics
    ///
    /// If `slot` is out of range.
    #[inline]
    #[must_use]
    pub(crate) fn get_at(&self, slot: usize) -> Msn {
        self.entries[slot]
    }

    /// Whether the vector tracks `p`.
    #[must_use]
    pub fn contains(&self, p: ProcessId) -> bool {
        self.slot(p).is_some()
    }

    /// Raises `p`'s entry to `c` if larger (receipts arrive in FIFO order,
    /// so entries are monotone). Entries already set to ∞ stay ∞.
    pub fn advance(&mut self, p: ProcessId, c: Msn) {
        if let Some(i) = self.slot(p) {
            self.advance_at(i, c);
        }
    }

    /// [`MsnVector::advance`] for the member at `slot` (see
    /// [`MsnVector::slot`]): no member-table search.
    ///
    /// # Panics
    ///
    /// If `slot` is out of range.
    #[inline]
    pub(crate) fn advance_at(&mut self, slot: usize, c: Msn) {
        let e = self.entries[slot];
        if e.is_infinite() || c <= e {
            return;
        }
        self.entries[slot] = c;
        self.raise_leaf(slot, c);
    }

    /// Sets `p`'s entry to the ∞ sentinel (step (viii)).
    pub fn set_infinite(&mut self, p: ProcessId) {
        let Some(i) = self.slot(p) else {
            return;
        };
        if self.entries[i].is_infinite() {
            return;
        }
        self.entries[i] = Msn::INFINITY;
        self.raise_leaf(i, Msn::INFINITY);
    }

    /// Removes `p` entirely (view installation removes failed members).
    pub fn remove(&mut self, p: ProcessId) {
        let Some(i) = self.slot(p) else {
            return;
        };
        self.ids.remove(i);
        self.entries.remove(i);
        self.rebuild_tree();
    }

    /// The minimum over non-∞ entries, or [`Msn::INFINITY`] if none remain.
    ///
    /// For a receive vector this is `D_{x,i}`; for a stability vector it is
    /// the stable prefix bound. O(1): the cached tree root.
    #[must_use]
    pub fn min_live(&self) -> Msn {
        self.tree.get(1).copied().unwrap_or(Msn::INFINITY)
    }

    /// The minimum over non-∞ entries of members other than `me`, or
    /// [`Msn::INFINITY`] if none remain.
    ///
    /// This is the deliverability bound `D_{x,i}` actually used by the
    /// engine: the local member's own entry cannot constrain `D`, because
    /// by CA1 every future local send is numbered above the local clock —
    /// nothing with a smaller number can ever be "received from myself".
    /// (Without this, a sole-survivor group would freeze its own entry and
    /// wedge the global `D_i` of a multi-group process.)
    ///
    /// O(1) unless `me` currently holds the minimum, in which case the
    /// excluded minimum is recombined from the O(log n) cached sibling
    /// minima along `me`'s tree path.
    #[must_use]
    pub fn min_live_excluding(&self, me: ProcessId) -> Msn {
        match self.slot(me) {
            Some(i) => self.min_live_excluding_at(i),
            None => self.min_live(),
        }
    }

    /// [`MsnVector::min_live_excluding`] for the member at `slot` (see
    /// [`MsnVector::slot`]): no member-table search.
    ///
    /// # Panics
    ///
    /// If `slot` is out of range.
    #[must_use]
    pub(crate) fn min_live_excluding_at(&self, slot: usize) -> Msn {
        let all = self.min_live();
        if self.entries[slot] > all {
            // The excluded member does not hold the minimum: excluding it
            // changes nothing.
            // (Covers the ∞ case too, unless everything is ∞ — then `all`
            // is ∞ and so is the answer.)
            return all;
        }
        // The excluded member is an argmin (or tied): combine the cached
        // minima of the siblings along its leaf-to-root path, which is the
        // minimum over every other entry.
        let mut node = self.leaf_base + slot;
        let mut min = Msn::INFINITY;
        while node > 1 {
            min = min.min(self.tree[node ^ 1]);
            node /= 2;
        }
        min
    }

    /// Number of tracked members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the vector is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates over `(member, number)` pairs in ascending member order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, Msn)> + '_ {
        self.ids.iter().copied().zip(self.entries.iter().copied())
    }

    /// Whether every tournament-tree cache node equals the minimum of its
    /// children and the leaves mirror the entries — the invariant `advance`
    /// and `raise_leaf` maintain incrementally. Audit hook; O(n).
    #[must_use]
    pub fn tree_coherent(&self) -> bool {
        if self.entries.is_empty() {
            return self.tree.is_empty() && self.leaf_base == 0;
        }
        if self.leaf_base != self.entries.len().next_power_of_two()
            || self.tree.len() != 2 * self.leaf_base
        {
            return false;
        }
        for (i, e) in self.entries.iter().enumerate() {
            if self.tree[self.leaf_base + i] != *e {
                return false;
            }
        }
        for pad in self.entries.len()..self.leaf_base {
            if self.tree[self.leaf_base + pad] != Msn::INFINITY {
                return false;
            }
        }
        (1..self.leaf_base).all(|i| self.tree[i] == self.tree[2 * i].min(self.tree[2 * i + 1]))
    }
}

impl Hash for MsnVector {
    fn hash<H: Hasher>(&self, h: &mut H) {
        // The cache tree is derived state — digest only the observable map,
        // mirroring `PartialEq`.
        let MsnVector {
            ids,
            entries,
            tree: _,
            leaf_base: _,
        } = self;
        ids.hash(h);
        // As long as `ids`, so no second length prefix.
        Hash::hash_slice(entries, h);
    }
}

impl PartialEq for MsnVector {
    fn eq(&self, other: &MsnVector) -> bool {
        // The cache tree is derived state; observable equality is the map.
        self.ids == other.ids && self.entries == other.entries
    }
}

impl Eq for MsnVector {}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn starts_at_zero() {
        let rv = MsnVector::new([p(1), p(2), p(3)]);
        assert_eq!(rv.min_live(), Msn::ZERO);
        assert_eq!(rv.get(p(2)), Msn::ZERO);
        assert_eq!(rv.len(), 3);
    }

    #[test]
    fn advance_is_monotone() {
        let mut rv = MsnVector::new([p(1)]);
        rv.advance(p(1), Msn(7));
        rv.advance(p(1), Msn(3)); // stale recovery duplicate must not regress
        assert_eq!(rv.get(p(1)), Msn(7));
    }

    #[test]
    fn advance_unknown_member_is_noop() {
        let mut rv = MsnVector::new([p(1)]);
        rv.advance(p(9), Msn(5));
        assert!(!rv.contains(p(9)));
        assert_eq!(rv.get(p(9)), Msn::ZERO);
    }

    #[test]
    fn min_live_skips_infinite_entries() {
        let mut rv = MsnVector::new([p(1), p(2)]);
        rv.advance(p(1), Msn(2));
        rv.advance(p(2), Msn(10));
        rv.set_infinite(p(1));
        assert_eq!(rv.min_live(), Msn(10));
    }

    #[test]
    fn infinite_entry_never_advances_back() {
        let mut rv = MsnVector::new([p(1)]);
        rv.set_infinite(p(1));
        rv.advance(p(1), Msn(99));
        assert!(rv.get(p(1)).is_infinite());
    }

    #[test]
    fn all_infinite_or_empty_yields_infinity() {
        let mut rv = MsnVector::new([p(1)]);
        rv.set_infinite(p(1));
        assert_eq!(rv.min_live(), Msn::INFINITY);
        rv.remove(p(1));
        assert!(rv.is_empty());
        assert_eq!(rv.min_live(), Msn::INFINITY);
    }

    #[test]
    fn min_excluding_skips_own_entry() {
        let mut rv = MsnVector::new([p(1), p(2)]);
        rv.advance(p(1), Msn(3));
        rv.advance(p(2), Msn(50));
        assert_eq!(rv.min_live_excluding(p(1)), Msn(50));
        rv.remove(p(2));
        assert_eq!(rv.min_live_excluding(p(1)), Msn::INFINITY);
    }

    #[test]
    fn d_is_bounded_by_slowest_member() {
        // The defining property of safe1: D = min RV means a process can
        // never deliver past the quietest member.
        let mut rv = MsnVector::new([p(1), p(2), p(3)]);
        rv.advance(p(1), Msn(100));
        rv.advance(p(2), Msn(50));
        rv.advance(p(3), Msn(75));
        assert_eq!(rv.min_live(), Msn(50));
    }

    #[test]
    fn min_excluding_when_me_is_argmin_and_tied() {
        let mut rv = MsnVector::new([p(1), p(2), p(3)]);
        rv.advance(p(1), Msn(5));
        rv.advance(p(2), Msn(5));
        rv.advance(p(3), Msn(9));
        // Tied minimum: excluding one of the two holders leaves the other.
        assert_eq!(rv.min_live_excluding(p(1)), Msn(5));
        rv.advance(p(2), Msn(7));
        // Unique argmin excluded: falls back to the runner-up.
        assert_eq!(rv.min_live_excluding(p(1)), Msn(7));
        assert_eq!(rv.min_live_excluding(p(2)), Msn(5));
    }

    #[test]
    fn duplicate_members_collapse_and_order_is_canonical() {
        let rv = MsnVector::new([p(3), p(1), p(3), p(2)]);
        assert_eq!(rv.len(), 3);
        let ids: Vec<u32> = rv.iter().map(|(q, _)| q.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn cached_min_tracks_round_robin_advances() {
        // The adversarial pattern for a cached minimum: every advance moves
        // the current argmin, so every ancestor cache is invalidated.
        let n = 64u32;
        let mut rv = MsnVector::new((1..=n).map(ProcessId));
        for c in 1..=10_000u64 {
            rv.advance(ProcessId((c % u64::from(n)) as u32 + 1), Msn(c));
            let naive = (1..=n)
                .map(|i| rv.get(ProcessId(i)))
                .filter(|m| !m.is_infinite())
                .min()
                .unwrap_or(Msn::INFINITY);
            assert_eq!(rv.min_live(), naive);
        }
    }

    #[test]
    fn tree_stays_coherent_under_all_mutations() {
        let mut rv = MsnVector::new((1..=5).map(ProcessId));
        assert!(rv.tree_coherent());
        for c in 1..=50u64 {
            rv.advance(ProcessId((c % 5) as u32 + 1), Msn(c));
            assert!(rv.tree_coherent());
        }
        rv.set_infinite(p(3));
        assert!(rv.tree_coherent());
        rv.remove(p(1));
        assert!(rv.tree_coherent());
        rv.remove(p(2));
        rv.remove(p(3));
        rv.remove(p(4));
        rv.remove(p(5));
        assert!(rv.tree_coherent());
        // And the audit actually detects corruption.
        let mut bad = MsnVector::new([p(1), p(2)]);
        bad.tree[1] = Msn(99);
        assert!(!bad.tree_coherent());
    }

    #[test]
    fn slot_ops_match_member_ops_and_survive_removal_in_step() {
        let mut rv = MsnVector::new([p(1), p(2), p(3), p(4)]);
        let mut sv = MsnVector::new([p(1), p(2), p(3), p(4)]);
        let mut by_id = MsnVector::new([p(1), p(2), p(3), p(4)]);
        rv.remove(p(2));
        sv.remove(p(2));
        by_id.remove(p(2));
        assert_eq!(rv.members(), &[p(1), p(3), p(4)]);
        for (c, q) in [(5, p(3)), (2, p(1)), (9, p(4)), (4, p(3))] {
            let slot = rv.slot(q).expect("member");
            assert_eq!(sv.slot(q), Some(slot), "equal member tables share slots");
            rv.advance_at(slot, Msn(c));
            by_id.advance(q, Msn(c));
            assert_eq!(rv.get_at(slot), by_id.get(q));
        }
        assert_eq!(rv, by_id);
        assert!(rv.tree_coherent());
        let me = rv.slot(p(1)).expect("member");
        assert_eq!(rv.min_live_excluding_at(me), by_id.min_live_excluding(p(1)));
        assert_eq!(rv.slot(p(2)), None);
    }

    #[test]
    fn digest_ignores_cache_shape_like_equality() {
        use newtop_types::digest::digest_of;
        let mut a = MsnVector::new([p(1), p(2), p(3)]);
        let mut b = MsnVector::new([p(1), p(2), p(3)]);
        a.advance(p(1), Msn(2));
        a.advance(p(1), Msn(4));
        b.advance(p(1), Msn(4));
        assert_eq!(digest_of(&a), digest_of(&b));
        b.advance(p(2), Msn(1));
        assert_ne!(digest_of(&a), digest_of(&b));
    }

    #[test]
    fn equality_ignores_cache_shape() {
        let mut a = MsnVector::new([p(1), p(2), p(3)]);
        let mut b = MsnVector::new([p(1), p(2), p(3)]);
        a.advance(p(1), Msn(2));
        a.advance(p(1), Msn(4));
        b.advance(p(1), Msn(4));
        assert_eq!(a, b);
        b.advance(p(2), Msn(1));
        assert_ne!(a, b);
    }
}

//! Undelivered-message buffering and the unstable-message retention store.
//!
//! Both stores keep [`Arc<Message>`] handles rather than owned copies: the
//! receive path hands the same reference-counted message to the delivery
//! buffer and the retention store, so buffering a message never copies its
//! payload (see DESIGN.md §7, "Performance model").

use newtop_types::{Message, MessageBody, Msn, ProcessId};
use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Received-but-undelivered messages of one group, ordered by the fixed
/// delivery order of condition *safe2*: non-decreasing message number with
/// the sender identifier as deterministic tie-break.
///
/// Only deliverable-class bodies are buffered (application multicasts,
/// sequencer relays and view cuts); nulls and membership messages act at
/// receipt and never enter the buffer.
///
/// The first key in delivery order is cached, so the per-receive
/// deliverability probes ([`DeliveryBuffer::first_key`],
/// [`DeliveryBuffer::has_le`]) are O(1) instead of a tree descent; the
/// cache is refreshed only when the head itself is removed.
#[derive(Debug, Clone, Default)]
pub struct DeliveryBuffer {
    map: BTreeMap<(Msn, ProcessId), Arc<Message>>,
    first: Option<(Msn, ProcessId)>,
}

impl DeliveryBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> DeliveryBuffer {
        DeliveryBuffer::default()
    }

    /// Inserts a message (idempotent on its `(c, sender)` key).
    pub fn insert(&mut self, m: Arc<Message>) {
        let key = (m.c, m.sender);
        self.map.entry(key).or_insert(m);
        if self.first.is_none_or(|f| key < f) {
            self.first = Some(key);
        }
    }

    /// The key of the next message in delivery order. O(1) (cached).
    #[must_use]
    pub fn first_key(&self) -> Option<(Msn, ProcessId)> {
        self.first
    }

    /// Removes and returns the message at `key`.
    pub fn take(&mut self, key: (Msn, ProcessId)) -> Option<Arc<Message>> {
        let removed = self.map.remove(&key);
        if removed.is_some() && self.first == Some(key) {
            self.first = self.map.keys().next().copied();
        }
        removed
    }

    /// Whether any buffered message has number at most `n`. O(1) (cached).
    #[must_use]
    pub fn has_le(&self, n: Msn) -> bool {
        self.first.is_some_and(|(c, _)| c <= n)
    }

    /// Discards messages from `sender` with number above `n`, returning how
    /// many were dropped. This is the step-(viii) safety measure: messages
    /// of a failed process beyond the agreed `lnmn` are discarded "even
    /// though it has been agreed that m was sent before Pk failed", to
    /// preserve MD5.
    pub fn discard_from_above(&mut self, sender: ProcessId, n: Msn) -> usize {
        let before = self.map.len();
        self.map.retain(|(c, s), _| !(*s == sender && *c > n));
        self.first = self.map.keys().next().copied();
        before - self.map.len()
    }

    /// Number of buffered messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates in delivery order.
    pub fn iter(&self) -> impl Iterator<Item = &Message> {
        self.map.values().map(|m| &**m)
    }

    /// Whether the cached head key equals the map's true first key — the
    /// invariant `insert`/`take`/`discard_from_above` maintain
    /// incrementally. Audit hook; O(log n).
    #[must_use]
    pub fn head_cache_coherent(&self) -> bool {
        self.first == self.map.keys().next().copied()
    }
}

impl Hash for DeliveryBuffer {
    fn hash<H: Hasher>(&self, h: &mut H) {
        // `first` is derived (head cache), and so are the map's keys: each
        // is its message's `(c, sender)`. Digest only the messages.
        let DeliveryBuffer { map, first: _ } = self;
        h.write_usize(map.len());
        map.values().for_each(|m| m.hash(h));
    }
}

/// Retained copies of unstable messages, per original sender, for the
/// recovery path of §5.2: a `refute` of suspicion `{P_k, ln}` piggybacks
/// every retained message of `P_k` with number above `ln` ("by definition
/// any missing m is unstable, so would not have been discarded").
///
/// Each sender's messages arrive in number order over its FIFO link, so
/// they are kept as one run per group member, indexed by the member's
/// slot: its position among the group's members in ascending id order,
/// the index the receive path has already looked up for the receive
/// vector. Each run is strictly increasing in `c`: retaining a message is
/// a `push_back`, stability garbage collection pops only the stable
/// fronts, and the step-(viii) discard pops from the back. None of these
/// searches or allocates once a run has grown to its working size. The
/// digest and the size queries treat an empty run as an absent sender.
/// A method given a `slot` out of range panics.
#[derive(Debug, Clone, Default)]
pub struct RetentionStore {
    runs: Vec<VecDeque<Arc<Message>>>,
}

impl RetentionStore {
    /// A store with one empty run for each of `members` slots.
    #[must_use]
    pub fn new(members: usize) -> RetentionStore {
        RetentionStore {
            runs: vec![VecDeque::new(); members],
        }
    }

    /// Retains `m` in the run at `slot`, its sender's. The common case
    /// shares the caller's reference; only a refute carrying a recovery
    /// piggyback is copied, with the piggyback stripped (the inner
    /// messages are retained individually by every receiver, so
    /// re-carrying them nested inside retained refutes would only compound
    /// memory).
    ///
    /// Amortised O(1): a message numbered above the sender's newest
    /// retained one is appended. A copy that a refutation piggyback
    /// overtook is numbered at or below it and replaces (or, if it was
    /// collected meanwhile, re-enters) its place in the run.
    pub fn store(&mut self, slot: usize, m: &Arc<Message>) {
        let keep = match &m.body {
            MessageBody::Refute { recovered, .. } if !recovered.is_empty() => {
                Arc::new(m.for_retention())
            }
            _ => Arc::clone(m),
        };
        let run = &mut self.runs[slot];
        if run.back().is_none_or(|b| b.c < m.c) {
            run.push_back(keep);
            return;
        }
        match run.binary_search_by_key(&m.c, |r| r.c) {
            Ok(j) => run[j] = keep,
            Err(j) => run.insert(j, keep),
        }
    }

    /// All retained messages of the member at `slot` with number above
    /// `ln`, in number order — the refute piggyback.
    #[must_use]
    pub fn above(&self, slot: usize, ln: Msn) -> Vec<Message> {
        let run = &self.runs[slot];
        let from = run.partition_point(|m| m.c <= ln);
        run.range(from..).map(|m| (**m).clone()).collect()
    }

    /// Drops messages that have become stable (number at or below
    /// `stable_min`): every member has received them, nobody can need a
    /// recovery copy (§5.1: "A process can safely discard stable messages").
    /// Pops only the stable front of each run; allocates nothing.
    pub fn gc_stable(&mut self, stable_min: Msn) {
        for run in &mut self.runs {
            // An all-∞ stability vector (sole survivor) stabilises
            // everything: `Msn::INFINITY` is above every number.
            while run.front().is_some_and(|m| m.c <= stable_min) {
                run.pop_front();
            }
        }
    }

    /// Discards retained messages of the member at `slot` above `n` (they
    /// were agreed out of existence by step (viii) and must not be
    /// re-supplied).
    pub fn discard_from_above(&mut self, slot: usize, n: Msn) {
        let run = &mut self.runs[slot];
        while run.back().is_some_and(|m| m.c > n) {
            run.pop_back();
        }
    }

    /// Drops the run at `slot` and everything in it; later slots move down
    /// by one, as the member's removal moves them in the group's other
    /// member tables.
    pub fn remove_slot(&mut self, slot: usize) {
        self.runs.remove(slot);
    }

    /// Total number of retained messages (buffer-occupancy metric for the
    /// flow-control experiment E9).
    #[must_use]
    pub fn len(&self) -> usize {
        self.runs.iter().map(VecDeque::len).sum()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.iter().all(VecDeque::is_empty)
    }

    /// Number of retained *application* messages (multicasts and relays).
    #[must_use]
    pub fn app_len(&self) -> usize {
        self.runs.iter().flatten().filter(|m| m.is_app()).count()
    }

    /// Whether there is one run per member of `members` (ascending ids,
    /// `members[slot]` the member at `slot`) and every retained message
    /// was sent by the member at its run's slot. Audit hook; O(n).
    #[must_use]
    pub fn runs_belong_to(&self, members: &[ProcessId]) -> bool {
        let mut runs = self.runs.iter().zip(members);
        self.runs.len() == members.len() && runs.all(|(r, id)| r.iter().all(|m| m.sender == *id))
    }

    /// Whether every run is strictly increasing in `c` and nothing at or
    /// below `stable` is retained — the order `store` keeps and the prefix
    /// `gc_stable(stable)` last dropped. Audit hook; O(n).
    #[must_use]
    pub fn runs_coherent(&self, stable: Msn) -> bool {
        self.runs.iter().all(|run| {
            run.iter().all(|m| m.c > stable)
                && run.iter().zip(run.iter().skip(1)).all(|(a, b)| a.c < b.c)
        })
    }
}

impl Hash for RetentionStore {
    fn hash<H: Hasher>(&self, h: &mut H) {
        // As a sender-keyed map of the non-empty runs: an empty run is an
        // absent sender, and a run's key is its messages' sender.
        let RetentionStore { runs } = self;
        let live = || runs.iter().filter_map(|r| Some((r.front()?.sender, r)));
        h.write_usize(live().count());
        live().for_each(|entry| entry.hash(h));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use newtop_types::{GroupId, MessageBody};

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn msg(sender: u32, c: u64) -> Arc<Message> {
        Arc::new(Message {
            group: GroupId(1),
            sender: p(sender),
            c: Msn(c),
            ldn: Msn(0),
            body: MessageBody::App(Bytes::from_static(b"x")),
        })
    }

    #[test]
    fn buffer_orders_by_number_then_sender() {
        let mut b = DeliveryBuffer::new();
        b.insert(msg(2, 5));
        b.insert(msg(1, 5));
        b.insert(msg(3, 4));
        assert_eq!(b.first_key(), Some((Msn(4), p(3))));
        b.take((Msn(4), p(3)));
        assert_eq!(b.first_key(), Some((Msn(5), p(1))));
    }

    #[test]
    fn buffer_insert_is_idempotent() {
        let mut b = DeliveryBuffer::new();
        b.insert(msg(1, 5));
        b.insert(msg(1, 5));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn buffer_has_le() {
        let mut b = DeliveryBuffer::new();
        assert!(!b.has_le(Msn(100)));
        b.insert(msg(1, 7));
        assert!(b.has_le(Msn(7)));
        assert!(!b.has_le(Msn(6)));
    }

    #[test]
    fn buffer_first_key_cache_survives_churn() {
        let mut b = DeliveryBuffer::new();
        b.insert(msg(1, 9));
        b.insert(msg(1, 3));
        b.insert(msg(1, 6));
        assert_eq!(b.first_key(), Some((Msn(3), p(1))));
        // Removing a non-head key leaves the cache untouched.
        b.take((Msn(6), p(1)));
        assert_eq!(b.first_key(), Some((Msn(3), p(1))));
        // Removing the head refreshes it.
        b.take((Msn(3), p(1)));
        assert_eq!(b.first_key(), Some((Msn(9), p(1))));
        b.take((Msn(9), p(1)));
        assert_eq!(b.first_key(), None);
        assert!(!b.has_le(Msn::INFINITY));
    }

    #[test]
    fn buffer_discard_above_respects_sender_and_bound() {
        let mut b = DeliveryBuffer::new();
        b.insert(msg(1, 5));
        b.insert(msg(1, 9));
        b.insert(msg(2, 9));
        let dropped = b.discard_from_above(p(1), Msn(5));
        assert_eq!(dropped, 1);
        assert_eq!(b.len(), 2);
        assert!(b.iter().any(|m| m.sender == p(2) && m.c == Msn(9)));
    }

    #[test]
    fn buffer_discard_above_refreshes_first_key() {
        let mut b = DeliveryBuffer::new();
        b.insert(msg(1, 2));
        b.insert(msg(2, 5));
        b.discard_from_above(p(1), Msn(1));
        assert_eq!(b.first_key(), Some((Msn(5), p(2))));
    }

    #[test]
    fn head_cache_audit_tracks_mutations_and_detects_corruption() {
        let mut b = DeliveryBuffer::new();
        assert!(b.head_cache_coherent());
        b.insert(msg(1, 9));
        b.insert(msg(2, 3));
        b.take((Msn(3), p(2)));
        b.discard_from_above(p(1), Msn(0));
        assert!(b.head_cache_coherent());
        b.insert(msg(1, 4));
        b.first = None; // simulated cache corruption
        assert!(!b.head_cache_coherent());
    }

    #[test]
    fn retention_supplies_messages_above_ln() {
        let mut r = RetentionStore::new(2);
        for c in 1..=5 {
            r.store(0, &msg(1, c));
        }
        let rec = r.above(0, Msn(2));
        let nums: Vec<u64> = rec.iter().map(|m| m.c.0).collect();
        assert_eq!(nums, vec![3, 4, 5]);
        assert!(r.above(1, Msn(0)).is_empty());
    }

    #[test]
    fn retention_gc_drops_stable_prefix() {
        let mut r = RetentionStore::new(1);
        for c in 1..=5 {
            r.store(0, &msg(1, c));
        }
        r.gc_stable(Msn(3));
        assert_eq!(r.len(), 2);
        assert_eq!(r.above(0, Msn(0)).len(), 2);
        r.gc_stable(Msn::INFINITY);
        assert!(r.is_empty());
    }

    #[test]
    fn retention_discard_above() {
        let mut r = RetentionStore::new(1);
        r.store(0, &msg(1, 4));
        r.store(0, &msg(1, 8));
        r.discard_from_above(0, Msn(5));
        assert_eq!(r.above(0, Msn(0)).len(), 1);
    }

    #[test]
    fn retention_overtaken_copy_keeps_number_order() {
        let mut r = RetentionStore::new(1);
        r.store(0, &msg(1, 1));
        r.store(0, &msg(1, 3));
        r.store(0, &msg(1, 2)); // fills the gap
        r.store(0, &msg(1, 3)); // duplicate: replaces in place
        let nums: Vec<u64> = r.above(0, Msn(0)).iter().map(|m| m.c.0).collect();
        assert_eq!(nums, vec![1, 2, 3]);
        assert!(r.runs_coherent(Msn(0)));
        assert!(
            !r.runs_coherent(Msn(1)),
            "the audit sees a retained stable message"
        );
    }

    #[test]
    fn retention_digest_treats_an_emptied_run_as_absent() {
        use newtop_types::digest::digest_of;
        let mut r = RetentionStore::new(2);
        r.store(1, &msg(2, 1));
        let only_p2 = digest_of(&r);
        r.store(0, &msg(1, 4));
        r.discard_from_above(0, Msn(0));
        assert_eq!(digest_of(&r), only_p2);
        r.gc_stable(Msn(1));
        assert!(r.is_empty());
        assert_eq!(digest_of(&r), digest_of(&RetentionStore::new(0)));
    }

    #[test]
    fn retention_remove_sender() {
        let mut r = RetentionStore::new(3);
        r.store(0, &msg(1, 1));
        r.store(1, &msg(2, 1));
        r.store(2, &msg(3, 1));
        assert!(r.runs_belong_to(&[p(1), p(2), p(3)]));
        r.remove_slot(1);
        assert_eq!(r.len(), 2);
        assert!(r.runs_belong_to(&[p(1), p(3)]));
        assert!(!r.runs_belong_to(&[p(1), p(2)]), "P3's run sits at slot 1");
        assert!(!r.runs_belong_to(&[p(1)]), "one run per member");
    }

    #[test]
    fn retention_shares_the_stored_reference() {
        let mut r = RetentionStore::new(1);
        let m = msg(1, 1);
        r.store(0, &m);
        let kept = r.above(0, Msn(0));
        // Payload bytes are shared, not copied: same backing buffer.
        match (&kept[0].body, &m.body) {
            (MessageBody::App(a), MessageBody::App(b)) => {
                assert_eq!(a.as_ptr(), b.as_ptr());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn retention_strips_refute_piggyback() {
        let mut r = RetentionStore::new(1);
        let inner = (*msg(9, 1)).clone();
        let refute = Arc::new(Message {
            group: GroupId(1),
            sender: p(2),
            c: Msn(4),
            ldn: Msn(0),
            body: MessageBody::Refute {
                suspicion: newtop_types::Suspicion {
                    suspect: p(9),
                    ln: Msn(0),
                },
                upto: Msn(3),
                recovered: vec![inner],
            },
        });
        r.store(0, &refute);
        let kept = r.above(0, Msn(0));
        match &kept[0].body {
            MessageBody::Refute { recovered, .. } => assert!(recovered.is_empty()),
            other => panic!("unexpected body {other:?}"),
        }
    }
}

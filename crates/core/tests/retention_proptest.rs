//! Model-based property test: the slot-aligned [`RetentionStore`] — one
//! run per group member, indexed by the member's slot — must be
//! observationally identical to the obvious sender-keyed nested-`BTreeMap`
//! reference implementation (its earlier representation) under arbitrary
//! interleavings of in-order, overtaken and duplicate stores, stability
//! garbage collection (finite and ∞), step-(viii) discards and member
//! removal, which shifts every later slot down by one.
//!
//! Observational identity includes the state digest: the model checker
//! deduplicates states by it, so the two representations must hash every
//! reachable store to the same bytes (empty runs count as absent senders).

use bytes::Bytes;
use newtop_core::RetentionStore;
use newtop_types::digest::digest_of;
use newtop_types::{GroupId, Message, MessageBody, Msn, ProcessId, Suspicion};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The previous representation, kept as the executable specification.
#[derive(Debug, Default)]
struct NaiveRetention {
    map: BTreeMap<ProcessId, BTreeMap<Msn, Arc<Message>>>,
}

impl NaiveRetention {
    fn store(&mut self, m: &Arc<Message>) {
        let keep = match &m.body {
            MessageBody::Refute { recovered, .. } if !recovered.is_empty() => {
                Arc::new(m.for_retention())
            }
            _ => Arc::clone(m),
        };
        self.map.entry(m.sender).or_default().insert(m.c, keep);
    }

    fn above(&self, sender: ProcessId, ln: Msn) -> Vec<Message> {
        self.map
            .get(&sender)
            .map(|msgs| {
                msgs.range((std::ops::Bound::Excluded(ln), std::ops::Bound::Unbounded))
                    .map(|(_, m)| (**m).clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    fn gc_stable(&mut self, stable_min: Msn) {
        if stable_min.is_infinite() {
            self.map.clear();
            return;
        }
        for msgs in self.map.values_mut() {
            *msgs = msgs.split_off(&stable_min.next());
        }
        self.map.retain(|_, msgs| !msgs.is_empty());
    }

    fn discard_from_above(&mut self, sender: ProcessId, n: Msn) {
        if let Some(msgs) = self.map.get_mut(&sender) {
            msgs.retain(|c, _| *c <= n);
            if msgs.is_empty() {
                self.map.remove(&sender);
            }
        }
    }

    fn remove_sender(&mut self, sender: ProcessId) {
        self.map.remove(&sender);
    }

    fn len(&self) -> usize {
        self.map.values().map(BTreeMap::len).sum()
    }

    fn app_len(&self) -> usize {
        self.map
            .values()
            .flat_map(BTreeMap::values)
            .filter(|m| m.is_app())
            .count()
    }

    fn newest(&self, sender: ProcessId) -> u64 {
        self.map
            .get(&sender)
            .and_then(|msgs| msgs.keys().next_back())
            .map_or(0, |c| c.0)
    }
}

/// Hashes as the runs do: each sender with its messages in number order.
impl Hash for NaiveRetention {
    fn hash<H: Hasher>(&self, h: &mut H) {
        h.write_usize(self.map.len());
        for (sender, msgs) in &self.map {
            sender.hash(h);
            h.write_usize(msgs.len());
            msgs.values().for_each(|m| m.hash(h));
        }
    }
}

/// A message of `sender` numbered `c`. `kind` picks the body: an
/// application payload tagged with `tag` (so a replacing store is visible
/// in the digest), a null, or a refute carrying a recovery piggyback
/// (which both stores must strip).
fn msg(sender: u32, c: u64, kind: u8, tag: u64) -> Arc<Message> {
    let body = match kind % 3 {
        0 => MessageBody::App(Bytes::from(tag.to_le_bytes().to_vec())),
        1 => MessageBody::Null,
        _ => MessageBody::Refute {
            suspicion: Suspicion {
                suspect: ProcessId(9),
                ln: Msn(tag),
            },
            upto: Msn(tag),
            recovered: vec![(*msg(9, tag + 1, 0, tag)).clone()],
        },
    };
    Arc::new(Message {
        group: GroupId(1),
        sender: ProcessId(sender),
        c: Msn(c),
        ldn: Msn(0),
        body,
    })
}

/// One scripted operation: `(selector, member pick, value, body kind)`.
type Op = (u8, u32, u64, u8);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..20, 0u32..64, 0u64..40, 0u8..3), 0..300)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn runs_match_nested_btreemap_model(ops in arb_ops()) {
        // `members[slot]` is the member whose run sits at `slot`, as the
        // group's member tables would say.
        let mut members: Vec<ProcessId> = (1..=8).map(ProcessId).collect();
        let mut runs = RetentionStore::new(members.len());
        let mut naive = NaiveRetention::default();
        for (step, (sel, pick, v, kind)) in ops.into_iter().enumerate() {
            if members.is_empty() {
                break;
            }
            let slot = pick as usize % members.len();
            let p = members[slot];
            match sel {
                // In-order stores dominate, as over a FIFO link; gaps are
                // allowed (numbers are shared by every group a sender is in).
                0..=7 => {
                    let m = msg(p.0, naive.newest(p) + 1 + v % 3, kind, v);
                    runs.store(slot, &m);
                    naive.store(&m);
                }
                // A copy a refutation piggyback overtook: numbered at or
                // below the newest retained one (a duplicate, or a gap
                // filler), or anywhere once its run was collected.
                8 | 9 => {
                    let m = msg(p.0, 1 + v % (naive.newest(p) + 1), kind, v + 1000);
                    runs.store(slot, &m);
                    naive.store(&m);
                }
                10..=13 => {
                    let stable = if v % 8 == 0 { Msn::INFINITY } else { Msn(v) };
                    runs.gc_stable(stable);
                    naive.gc_stable(stable);
                }
                14..=17 => {
                    runs.discard_from_above(slot, Msn(v));
                    naive.discard_from_above(p, Msn(v));
                }
                // A view installation excluding the member.
                18 if v % 2 == 0 => {
                    members.remove(slot);
                    runs.remove_slot(slot);
                    naive.remove_sender(p);
                }
                _ => {}
            }
            prop_assert_eq!(runs.len(), naive.len(), "len after step {}", step);
            prop_assert_eq!(runs.app_len(), naive.app_len(), "app_len after step {}", step);
            prop_assert_eq!(runs.is_empty(), naive.len() == 0);
            prop_assert!(runs.runs_coherent(Msn::ZERO), "run order after step {}", step);
            prop_assert!(runs.runs_belong_to(&members), "run ownership after step {}", step);
            prop_assert_eq!(digest_of(&runs), digest_of(&naive), "digest after step {}", step);
            for (slot, s) in members.iter().enumerate() {
                prop_assert_eq!(runs.above(slot, Msn::ZERO), naive.above(*s, Msn::ZERO));
                prop_assert_eq!(runs.above(slot, Msn(v)), naive.above(*s, Msn(v)));
            }
        }
    }
}

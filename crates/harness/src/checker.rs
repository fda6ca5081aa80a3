//! The property checker: validates the paper's correctness properties over
//! a recorded [`History`].
//!
//! | Property | Paper statement | Check |
//! |---|---|---|
//! | MD1 | a message is delivered in view `Vr` only if its sender is in `Vr` | every delivery's origin is in the delivering view |
//! | MD4/MD4' | total order within and across groups | every pair of processes orders its common deliveries identically |
//! | MD5 | same-group causal prefix | if `m → m'` (same group) and `m'` delivered, `m` was delivered earlier — conditioned on `m`'s sender still being in the local view (an excluded sender's tail may be agreed-discarded, step (viii); uniformity is covered by VC3) |
//! | MD5' | cross-group causal prefix | as MD5 across groups, conditioned on `m.s` still being in the local view of `m.g` at the delivery of `m'` |
//! | VC1 | processes that never crash nor suspect each other install identical view sequences | prefix-compatible per-group view sequences |
//! | VC3/MD3 | identical consecutive views bracket identical delivery sets | delivery sets per closed view interval are equal — for pairs still mutually connected while closing it (a confirmed exclusion of the peer adopted before the closing install exempts the bracket: partition sides close a shared view independently) |
//! | exclusion barrier | nothing from an excluded member is delivered after the view change | log-order: every delivery's origin is in the locally current view; no deliveries after a voluntary departure |
//! | liveness/atomicity | quiescent runs: co-members of the final view delivered the same set, including everything its members sent | optional (fault schedules that partition meaningfully set their own expectations) |
//!
//! The happened-before relation is reconstructed from the per-process logs:
//! `a → b` iff a process sent `a` before sending `b`, or delivered `a`
//! before sending `b`, or transitively so.
//!
//! # Single-pass architecture
//!
//! The checker is the inner loop of the chaos fleet (it runs once per swept
//! seed), so it indexes each history exactly once and runs every check off
//! those indices instead of re-scanning per check:
//!
//! * message identities are interned to dense `u32`s, so per-message state
//!   lives in flat vectors and message *sets* are bitsets (`BitSet`);
//! * installed views are interned globally (`ViewTable`), so the
//!   view-matched order comparison (MD4 under partitionable membership) is
//!   an integer compare;
//! * each per-process log is walked once (`digest`), producing delivery /
//!   send / view timelines — the log-order exclusion-barrier check runs
//!   inline during that same walk;
//! * the happened-before closure is a bitset fixpoint over interned ids
//!   rather than per-message BFS over `BTreeSet`s.

use crate::history::{History, HistoryEvent, MessageId};
use newtop_types::{GroupId, ProcessId, ViewSeq};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// What to check beyond the safety properties, which are always checked.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Quiescent liveness/atomicity (on by default; only for runs that
    /// end settled).
    pub liveness: bool,
}

impl Default for CheckOptions {
    fn default() -> CheckOptions {
        CheckOptions { liveness: true }
    }
}

/// A property violation found in a history.
#[derive(Debug, Clone)]
pub enum Violation {
    /// MD4/MD4': two processes ordered common messages differently.
    TotalOrder {
        /// The disagreeing pair.
        a: ProcessId,
        /// The disagreeing pair.
        b: ProcessId,
        /// The first messages at which their common order diverges.
        at: (MessageId, MessageId),
    },
    /// MD5/MD5': an effect was delivered without its cause.
    CausalPrefix {
        /// The process that delivered out of causal order.
        p: ProcessId,
        /// The cause.
        cause: MessageId,
        /// The delivered effect.
        effect: MessageId,
    },
    /// MD1: a delivery's origin was not in the delivering view.
    SenderNotInView {
        /// The delivering process.
        p: ProcessId,
        /// The message.
        mid: Option<MessageId>,
        /// The group.
        group: GroupId,
        /// The view sequence the delivery was attributed to.
        view_seq: ViewSeq,
    },
    /// VC1: mutually unsuspecting processes installed diverging views.
    ViewSequence {
        /// The disagreeing pair.
        a: ProcessId,
        /// The disagreeing pair.
        b: ProcessId,
        /// The group.
        group: GroupId,
        /// The first diverging view sequence number.
        seq: ViewSeq,
    },
    /// VC3: identical consecutive views bracket different delivery sets.
    DeliverySet {
        /// The disagreeing pair.
        a: ProcessId,
        /// The disagreeing pair.
        b: ProcessId,
        /// The group.
        group: GroupId,
        /// The view interval with differing sets.
        seq: ViewSeq,
    },
    /// A process delivered the same tagged message more than once.
    DuplicateDelivery {
        /// The process that delivered twice.
        p: ProcessId,
        /// The group.
        group: GroupId,
        /// The message delivered more than once.
        mid: MessageId,
    },
    /// Exclusion barrier: a delivery was observed after the delivering
    /// process had already installed a view excluding the origin (or after
    /// it had itself departed the group).
    DeliveryAfterExclusion {
        /// The delivering process.
        p: ProcessId,
        /// The group.
        group: GroupId,
        /// The excluded (or self-departed) origin of the late delivery.
        origin: ProcessId,
        /// The message, when tagged.
        mid: Option<MessageId>,
    },
    /// Liveness/atomicity at quiescence.
    Liveness {
        /// The process that is missing a delivery.
        p: ProcessId,
        /// The group.
        group: GroupId,
        /// The missing message.
        mid: MessageId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::TotalOrder { a, b, at } => write!(
                f,
                "MD4' violation: {a} and {b} disagree on the order of {:?} vs {:?}",
                at.0, at.1
            ),
            Violation::CausalPrefix { p, cause, effect } => write!(
                f,
                "MD5' violation at {p}: delivered {effect:?} without its cause {cause:?}"
            ),
            Violation::SenderNotInView {
                p,
                mid,
                group,
                view_seq,
            } => write!(
                f,
                "MD1 violation at {p}: delivery {mid:?} in {group} {view_seq} whose origin is not a member"
            ),
            Violation::ViewSequence { a, b, group, seq } => write!(
                f,
                "VC1 violation: {a} and {b} diverge in {group} at {seq} without mutual suspicion"
            ),
            Violation::DeliverySet { a, b, group, seq } => write!(
                f,
                "VC3 violation: {a} and {b} delivered different sets in {group} view {seq}"
            ),
            Violation::DuplicateDelivery { p, group, mid } => write!(
                f,
                "duplicate delivery at {p}: {mid:?} delivered more than once in {group}"
            ),
            Violation::DeliveryAfterExclusion {
                p,
                group,
                origin,
                mid,
            } => write!(
                f,
                "exclusion-barrier violation at {p}: delivered {mid:?} from {origin} in {group} after excluding it"
            ),
            Violation::Liveness { p, group, mid } => write!(
                f,
                "liveness violation: {p} never delivered {mid:?} in {group}"
            ),
        }
    }
}

/// Sentinel for "no log index" in dense per-message vectors.
const NONE_IDX: u32 = u32::MAX;

/// A fixed-capacity bitset over interned message ids.
#[derive(Clone, PartialEq, Eq)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(capacity: usize) -> BitSet {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Inserts `i`, returning whether it was newly set.
    fn insert(&mut self, i: u32) -> bool {
        let (w, b) = (i as usize / 64, i % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    fn contains(&self, i: u32) -> bool {
        self.words[i as usize / 64] & (1 << (i % 64)) != 0
    }

    /// `self |= other`, returning whether any bit changed.
    fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let next = *w | o;
            changed |= next != *w;
            *w = next;
        }
        changed
    }

    /// Iterates set bits in ascending order.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            let mut w = *w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros();
                w &= w - 1;
                Some(wi as u32 * 64 + b)
            })
        })
    }
}

/// Interned message ids: dense `u32` ↔ [`MessageId`].
#[derive(Default)]
struct MidTable {
    ids: BTreeMap<MessageId, u32>,
    mids: Vec<MessageId>,
}

impl MidTable {
    fn intern(&mut self, mid: MessageId) -> u32 {
        *self.ids.entry(mid).or_insert_with(|| {
            self.mids.push(mid);
            (self.mids.len() - 1) as u32
        })
    }

    fn len(&self) -> usize {
        self.mids.len()
    }
}

/// Globally interned installed views: `(group, membership)` → dense id, so
/// "same installed view at both processes" is an integer compare.
#[derive(Default)]
struct ViewTable {
    views: Vec<(GroupId, newtop_types::View)>,
}

impl ViewTable {
    fn intern(&mut self, group: GroupId, view: &newtop_types::View) -> u32 {
        match self
            .views
            .iter()
            .position(|(g, v)| *g == group && v == view)
        {
            Some(i) => i as u32,
            None => {
                self.views.push((group, view.clone()));
                (self.views.len() - 1) as u32
            }
        }
    }

    fn view(&self, vid: u32) -> &newtop_types::View {
        &self.views[vid as usize].1
    }
}

/// One tagged delivery in log order.
struct DeliveryRec {
    idx: u32,
    cid: u32,
    group: GroupId,
    view_seq: ViewSeq,
}

/// One installed view in log order.
struct ViewRec {
    idx: u32,
    seq: ViewSeq,
    vid: u32,
}

/// Per-process digested log: every index the checks below need, built in
/// one pass over the raw event log (plus the log-order exclusion-barrier
/// check, which runs inline during that same pass).
struct Digest {
    /// Tagged deliveries, all groups, in log order.
    deliveries: Vec<DeliveryRec>,
    /// cid → log index of its (last) delivery, `NONE_IDX` if never.
    delivered_at: Vec<u32>,
    /// cid → the number it was first delivered under here. Used to spot
    /// fail-over re-sequencing: a message whose delivered numbers disagree
    /// across processes was re-homed into a new view.
    delivered_c: Vec<Option<newtop_types::Msn>>,
    /// (log index, group, cid) of sends, in log order.
    sends: Vec<(u32, GroupId, u32)>,
    /// group → installed views in log order, including V0.
    views: BTreeMap<GroupId, Vec<ViewRec>>,
    /// `(group, view_seq)` → interned id of the first view installed under
    /// that sequence (delivery-attribution resolution for MD1/MD4).
    view_by_seq: BTreeMap<(GroupId, ViewSeq), u32>,
    /// group → tagged deliveries `(log index, cid)` of that group.
    by_group: BTreeMap<GroupId, Vec<(u32, u32)>>,
    /// cid → first `(group, view_seq, resolved vid)` this process
    /// attributed the delivery to (`NONE_IDX` vid if no matching view).
    attr: Vec<Option<(GroupId, ViewSeq, u32)>>,
    /// Suspected pairs: (group, suspect).
    suspected: BTreeSet<(GroupId, ProcessId)>,
    /// (group, failed) → log index of the first adopted detection naming
    /// them: step (viii) discards their undelivered tail from this point,
    /// so causal obligations on their messages end here, not only at the
    /// (possibly much later, barrier-delayed) view install.
    adopted_at: BTreeMap<(GroupId, ProcessId), u32>,
    /// groups this process voluntarily departed → log index of the
    /// departure *request* (liveness obligations end here).
    departed: BTreeMap<GroupId, u32>,
    /// groups whose departure actually executed → log index of completion
    /// (deliveries are legitimate between request and completion, §3).
    departure_done: BTreeMap<GroupId, u32>,
    /// Exclusion-barrier violations found during the log walk.
    exclusion: Vec<Violation>,
}

fn digest(h: &History, p: ProcessId, mids: &mut MidTable, vtab: &mut ViewTable) -> Digest {
    let mut d = Digest {
        deliveries: Vec::new(),
        delivered_at: Vec::new(),
        delivered_c: Vec::new(),
        sends: Vec::new(),
        views: BTreeMap::new(),
        view_by_seq: BTreeMap::new(),
        by_group: BTreeMap::new(),
        attr: Vec::new(),
        suspected: BTreeSet::new(),
        adopted_at: BTreeMap::new(),
        departed: BTreeMap::new(),
        departure_done: BTreeMap::new(),
        exclusion: Vec::new(),
    };
    let Some(evs) = h.events.get(&p) else {
        return d;
    };
    // Log-order state for the inline exclusion-barrier check: once a view
    // of `g` excludes `q`, no later delivery of `g` may originate at `q`;
    // once the own departure *completes*, nothing of `g` delivers at all.
    let mut current_vid: BTreeMap<GroupId, u32> = BTreeMap::new();
    let mut left: BTreeSet<GroupId> = BTreeSet::new();
    for (i, e) in evs.iter().enumerate() {
        let i = i as u32;
        match e {
            HistoryEvent::Delivered { delivery, mid, .. } => {
                let g = delivery.group;
                let excluded = current_vid
                    .get(&g)
                    .is_some_and(|vid| !vtab.view(*vid).contains(delivery.origin));
                if left.contains(&g) || excluded {
                    d.exclusion.push(Violation::DeliveryAfterExclusion {
                        p,
                        group: g,
                        origin: delivery.origin,
                        mid: *mid,
                    });
                }
                if let Some(mid) = mid {
                    let cid = mids.intern(*mid);
                    grow(&mut d.delivered_at, mids.len(), NONE_IDX);
                    grow(&mut d.delivered_c, mids.len(), None);
                    grow(&mut d.attr, mids.len(), None);
                    d.deliveries.push(DeliveryRec {
                        idx: i,
                        cid,
                        group: g,
                        view_seq: delivery.view_seq,
                    });
                    d.by_group.entry(g).or_default().push((i, cid));
                    d.delivered_at[cid as usize] = i;
                    let slot = &mut d.delivered_c[cid as usize];
                    if slot.is_none() {
                        *slot = Some(delivery.c);
                    }
                    let attr = &mut d.attr[cid as usize];
                    if attr.is_none() {
                        // Resolved against the view table after the walk.
                        *attr = Some((g, delivery.view_seq, NONE_IDX));
                    }
                }
            }
            HistoryEvent::Sent { group, mid, .. } => {
                let cid = mids.intern(*mid);
                d.sends.push((i, *group, cid));
            }
            HistoryEvent::InitialView { group, view } => {
                let vid = vtab.intern(*group, view);
                current_vid.insert(*group, vid);
                d.views.entry(*group).or_default().push(ViewRec {
                    idx: 0,
                    seq: view.seq(),
                    vid,
                });
                d.view_by_seq.entry((*group, view.seq())).or_insert(vid);
            }
            HistoryEvent::ViewChange { group, view, .. } => {
                let vid = vtab.intern(*group, view);
                current_vid.insert(*group, vid);
                d.views.entry(*group).or_default().push(ViewRec {
                    idx: i,
                    seq: view.seq(),
                    vid,
                });
                d.view_by_seq.entry((*group, view.seq())).or_insert(vid);
            }
            HistoryEvent::Protocol { event, .. } => match event {
                newtop_core::ProtocolEvent::Suspected { group, pair } => {
                    d.suspected.insert((*group, pair.suspect));
                }
                newtop_core::ProtocolEvent::DetectionAdopted { group, detection } => {
                    for pair in detection {
                        d.adopted_at.entry((*group, pair.suspect)).or_insert(i);
                    }
                }
                newtop_core::ProtocolEvent::DepartureCompleted { group } => {
                    d.departure_done.entry(*group).or_insert(i);
                    left.insert(*group);
                }
                _ => {}
            },
            HistoryEvent::GroupActive { .. } => {}
            HistoryEvent::Departed { group, .. } => {
                d.departed.entry(*group).or_insert(i);
            }
        }
    }
    d
}

/// Extends a dense per-message vector to cover newly interned ids.
fn grow<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    if v.len() < len {
        v.resize(len, fill);
    }
}

/// Everything `check_all` indexes once up front.
struct Index {
    procs: Vec<ProcessId>,
    digests: Vec<Digest>,
    mids: MidTable,
    vtab: ViewTable,
    /// cid → `(group, origin)` from the senders' logs.
    mid_info: Vec<Option<(GroupId, ProcessId)>>,
}

impl Index {
    fn build(h: &History) -> Index {
        let procs: Vec<ProcessId> = h.processes().collect();
        let mut mids = MidTable::default();
        let mut vtab = ViewTable::default();
        let mut digests: Vec<Digest> = procs
            .iter()
            .map(|p| digest(h, *p, &mut mids, &mut vtab))
            .collect();
        let m = mids.len();
        for d in &mut digests {
            grow(&mut d.delivered_at, m, NONE_IDX);
            grow(&mut d.delivered_c, m, None);
            grow(&mut d.attr, m, None);
            // Resolve delivery attributions against the installed views.
            for a in d.attr.iter_mut().flatten() {
                if let Some(vid) = d.view_by_seq.get(&(a.0, a.1)) {
                    a.2 = *vid;
                }
            }
        }
        let mut mid_info: Vec<Option<(GroupId, ProcessId)>> = vec![None; m];
        for (p, d) in procs.iter().zip(&digests) {
            for (_, g, cid) in &d.sends {
                mid_info[*cid as usize] = Some((*g, *p));
            }
        }
        Index {
            procs,
            digests,
            mids,
            vtab,
            mid_info,
        }
    }

    fn mid(&self, cid: u32) -> MessageId {
        self.mids.mids[cid as usize]
    }
}

/// Runs every safety check, and liveness when enabled, and returns the
/// violations found (empty = all properties hold on this history).
#[must_use]
pub fn check_all(h: &History, opts: &CheckOptions) -> Vec<Violation> {
    let ix = Index::build(h);
    let mut violations = Vec::new();
    check_duplicates(&ix, &mut violations);
    check_total_order(&ix, &mut violations);
    check_causality(&ix, &mut violations);
    check_md1(&ix, &mut violations);
    for d in &ix.digests {
        violations.extend(d.exclusion.iter().cloned());
    }
    check_vc1(h, &ix, &mut violations);
    check_vc3(&ix, &mut violations);
    if opts.liveness {
        check_liveness(h, &ix, &mut violations);
    }
    violations
}

/// Every tagged message is delivered at most once per process (checked
/// up front so the order comparison below can assume sets, and so a
/// re-delivery bug reports as itself rather than as an order divergence).
fn check_duplicates(ix: &Index, violations: &mut Vec<Violation>) {
    for (p, d) in ix.procs.iter().zip(&ix.digests) {
        let mut seen = BitSet::new(ix.mids.len());
        for rec in &d.deliveries {
            if !seen.insert(rec.cid) {
                violations.push(Violation::DuplicateDelivery {
                    p: *p,
                    group: rec.group,
                    mid: ix.mid(rec.cid),
                });
            }
        }
    }
}

fn check_total_order(ix: &Index, violations: &mut Vec<Violation>) {
    // MD3/MD4 under partitionable membership (§5.2): order is promised
    // between processes *holding the same view* — a member that a cut (or
    // a crash mid-exclusion) left on a dead branch delivered under a view
    // the survivors replaced, and re-sequencing after sequencer fail-over
    // may legitimately reorder there. So the pairwise comparison covers
    // exactly the common messages both sides delivered under the
    // *identical* installed view (same seq and same membership) — with the
    // views interned, one integer compare per message.
    for (ai, a) in ix.procs.iter().enumerate() {
        for (bj, b) in ix.procs.iter().enumerate().skip(ai + 1) {
            let da = &ix.digests[ai];
            let db = &ix.digests[bj];
            let comparable = |cid: u32| -> bool {
                match (da.attr[cid as usize], db.attr[cid as usize]) {
                    (Some((ga, _, va)), Some((gb, _, vb))) => {
                        ga == gb && va != NONE_IDX && vb != NONE_IDX && va == vb
                    }
                    _ => false,
                }
            };
            let project = |d: &Digest| -> Vec<u32> {
                let mut seen = BitSet::new(ix.mids.len());
                d.deliveries
                    .iter()
                    .map(|r| r.cid)
                    .filter(|cid| comparable(*cid) && seen.insert(*cid))
                    .collect()
            };
            let seq_a = project(da);
            let seq_b = project(db);
            if let Some(k) = (0..seq_a.len().min(seq_b.len())).find(|k| seq_a[*k] != seq_b[*k]) {
                violations.push(Violation::TotalOrder {
                    a: *a,
                    b: *b,
                    at: (ix.mid(seq_a[k]), ix.mid(seq_b[k])),
                });
            }
        }
    }
}

/// The happened-before DAG over tagged messages as bitset predecessor sets
/// (transitively closed), indexed by interned id. Only ids that appear in a
/// `Sent` event get a set; `None` elsewhere.
fn causal_predecessors(ix: &Index) -> Vec<Option<BitSet>> {
    let m = ix.mids.len();
    let mut preds: Vec<Option<BitSet>> = (0..m).map(|_| None).collect();
    let mut running = BitSet::new(m);
    for d in &ix.digests {
        // All deliveries and prior sends at this process precede each send:
        // one merged walk of the send/delivery timelines per process.
        for w in &mut running.words {
            *w = 0;
        }
        let mut di = 0usize;
        for (send_idx, _, cid) in &d.sends {
            while di < d.deliveries.len() && d.deliveries[di].idx < *send_idx {
                running.insert(d.deliveries[di].cid);
                di += 1;
            }
            preds[*cid as usize]
                .get_or_insert_with(|| BitSet::new(m))
                .union_with(&running);
            running.insert(*cid);
        }
    }
    // Transitive closure: bitset fixpoint (message counts per run are small,
    // so this converges in a handful of rounds).
    let sent: Vec<u32> = (0..m as u32)
        .filter(|c| preds[*c as usize].is_some())
        .collect();
    let mut scratch: Vec<u32> = Vec::new();
    loop {
        let mut changed = false;
        for c in &sent {
            // Take `c`'s set out so predecessors can be read by reference
            // (no per-edge clones); the snapshot of its bits taken before
            // the unions matches the per-round semantics of the fixpoint.
            let mut acc = preds[*c as usize].take().expect("sent id");
            scratch.clear();
            scratch.extend(acc.iter());
            for p in &scratch {
                if *p == *c {
                    continue;
                }
                if let Some(more) = preds[*p as usize].as_ref() {
                    changed |= acc.union_with(more);
                }
            }
            preds[*c as usize] = Some(acc);
        }
        if !changed {
            break;
        }
    }
    preds
}

fn check_causality(ix: &Index, violations: &mut Vec<Violation>) {
    let preds = causal_predecessors(ix);
    // Messages whose delivered numbers disagree across processes were
    // re-sequenced by a fail-over (the old relay was agreed-discarded and
    // the message re-homed under a new number in a new view). Their
    // delivery position no longer tracks the single-clock causal order
    // (CA2), so the prefix obligation is waived for them as causes; the
    // view-scoped order checks still constrain them.
    let m = ix.mids.len();
    let mut resequenced = BitSet::new(m);
    let mut first_c: Vec<Option<newtop_types::Msn>> = vec![None; m];
    for d in &ix.digests {
        for (cid, c) in d.delivered_c.iter().enumerate() {
            let Some(c) = c else { continue };
            match first_c[cid] {
                None => first_c[cid] = Some(*c),
                Some(prev) if prev != *c => {
                    resequenced.insert(cid as u32);
                }
                Some(_) => {}
            }
        }
    }
    for (p, d) in ix.procs.iter().zip(&ix.digests) {
        // Per-group cursor into the view timeline: deliveries are walked in
        // log order, so "current view at this delivery" advances
        // monotonically per group.
        let mut cursor: BTreeMap<GroupId, usize> = BTreeMap::new();
        for rec in &d.deliveries {
            let eff_idx = rec.idx;
            let Some(causes) = preds[rec.cid as usize].as_ref() else {
                continue;
            };
            for cause in causes.iter() {
                if resequenced.contains(cause) {
                    continue;
                }
                let Some((cause_group, cause_origin)) = ix.mid_info[cause as usize] else {
                    continue;
                };
                // MD5/MD5': the causal-prefix obligation is conditioned (in
                // both the same-group and the cross-group case) on the
                // cause's sender still being in p's current view of the
                // cause's group when the effect is delivered. Once the
                // sender has been excluded, the step-(viii) agreement may
                // have discarded the cause ("even though it has been agreed
                // that m was sent before Pk failed") — uniformly at every
                // survivor, which VC3 and the pairwise order checks verify.
                let Some(views) = d.views.get(&cause_group) else {
                    continue; // never a member of that group
                };
                if d.departure_done
                    .get(&cause_group)
                    .is_some_and(|di| *di <= eff_idx)
                {
                    continue; // already left the cause's group: no view,
                              // no obligation (§3)
                }
                let cur = cursor.entry(cause_group).or_insert(0);
                while *cur + 1 < views.len() && views[*cur + 1].idx <= eff_idx {
                    *cur += 1;
                }
                if views[*cur].idx > eff_idx {
                    continue; // first view installs after this delivery
                }
                let view = ix.vtab.view(views[*cur].vid);
                if !view.contains(cause_origin) {
                    continue; // sender excluded: no obligation
                }
                if d.adopted_at
                    .get(&(cause_group, cause_origin))
                    .is_some_and(|ai| *ai <= eff_idx)
                {
                    // Exclusion agreed though not yet installed (the view
                    // change waits behind its delivery barrier): the
                    // sender's undelivered tail is already agreed-discarded
                    // (step (viii)), so the prefix obligation has ended.
                    continue;
                }
                if d.delivered_at[cause as usize] >= eff_idx {
                    violations.push(Violation::CausalPrefix {
                        p: *p,
                        cause: ix.mid(cause),
                        effect: ix.mid(rec.cid),
                    });
                }
            }
        }
    }
}

fn check_md1(ix: &Index, violations: &mut Vec<Violation>) {
    for (p, d) in ix.procs.iter().zip(&ix.digests) {
        for rec in &d.deliveries {
            let Some((_, origin)) = ix.mid_info[rec.cid as usize] else {
                continue;
            };
            let Some(vid) = d.view_by_seq.get(&(rec.group, rec.view_seq)) else {
                continue;
            };
            if !ix.vtab.view(*vid).contains(origin) {
                violations.push(Violation::SenderNotInView {
                    p: *p,
                    mid: Some(ix.mid(rec.cid)),
                    group: rec.group,
                    view_seq: rec.view_seq,
                });
            }
        }
    }
}

fn check_vc1(h: &History, ix: &Index, violations: &mut Vec<Violation>) {
    for (ai, a) in ix.procs.iter().enumerate() {
        for (bj, b) in ix.procs.iter().enumerate().skip(ai + 1) {
            if h.is_crashed(*a) || h.is_crashed(*b) {
                continue;
            }
            let da = &ix.digests[ai];
            let db = &ix.digests[bj];
            let groups: BTreeSet<GroupId> =
                da.views.keys().chain(db.views.keys()).copied().collect();
            for g in groups {
                let (Some(va), Some(vb)) = (da.views.get(&g), db.views.get(&g)) else {
                    continue;
                };
                if da.suspected.contains(&(g, *b)) || db.suspected.contains(&(g, *a)) {
                    continue; // VC1 precondition broken: they suspected each other
                }
                let shorter = va.len().min(vb.len());
                for k in 0..shorter {
                    if va[k].vid != vb[k].vid {
                        violations.push(Violation::ViewSequence {
                            a: *a,
                            b: *b,
                            group: g,
                            seq: va[k].seq,
                        });
                        break;
                    }
                }
            }
        }
    }
}

fn check_vc3(ix: &Index, violations: &mut Vec<Violation>) {
    let empty: Vec<(u32, u32)> = Vec::new();
    for (ai, a) in ix.procs.iter().enumerate() {
        for (bj, b) in ix.procs.iter().enumerate().skip(ai + 1) {
            let da = &ix.digests[ai];
            let db = &ix.digests[bj];
            for (g, va) in &da.views {
                let Some(vb) = db.views.get(g) else {
                    continue;
                };
                let ga = da.by_group.get(g).unwrap_or(&empty);
                let gb = db.by_group.get(g).unwrap_or(&empty);
                // Closed intervals: view r and r+1 present and identical at both.
                for w in 0..va.len().saturating_sub(1) {
                    let (r, r_next) = (&va[w], &va[w + 1]);
                    let Some(wb) = vb.iter().position(|v| v.vid == r.vid) else {
                        continue;
                    };
                    if wb + 1 >= vb.len() || vb[wb + 1].vid != r_next.vid {
                        continue;
                    }
                    // VC3 precondition: the pair stayed mutually connected
                    // while closing the interval. A confirmed exclusion of
                    // the peer adopted before the closing install means the
                    // views diverged mid-interval (partition sides close a
                    // shared view independently; the paper guarantees
                    // agreement only within a connected component). The
                    // exemption is bracket-scoped and keyed on *adopted*
                    // detections — refuted suspicions never reach adoption,
                    // so healthy-run intervals keep full VC3 strength.
                    let a_cut = da
                        .adopted_at
                        .get(&(*g, *b))
                        .is_some_and(|i| *i <= r_next.idx);
                    let b_cut = db
                        .adopted_at
                        .get(&(*g, *a))
                        .is_some_and(|i| *i <= vb[wb + 1].idx);
                    if a_cut || b_cut {
                        continue;
                    }
                    let set = |dels: &[(u32, u32)], lo: u32, hi: u32| -> BitSet {
                        let mut s = BitSet::new(ix.mids.len());
                        let from = dels.partition_point(|(i, _)| *i <= lo);
                        for (i, cid) in &dels[from..] {
                            if *i >= hi {
                                break;
                            }
                            s.insert(*cid);
                        }
                        s
                    };
                    let sa = set(ga, r.idx, r_next.idx);
                    let sb = set(gb, vb[wb].idx, vb[wb + 1].idx);
                    if sa != sb {
                        violations.push(Violation::DeliverySet {
                            a: *a,
                            b: *b,
                            group: *g,
                            seq: r.seq,
                        });
                    }
                }
            }
        }
    }
}

fn check_liveness(h: &History, ix: &Index, violations: &mut Vec<Violation>) {
    // For each group: survivors with identical final views must hold equal
    // delivery sets that include everything sent by final-view members.
    let groups: BTreeSet<GroupId> = ix
        .digests
        .iter()
        .flat_map(|d| d.views.keys().copied())
        .collect();
    let proc_pos: BTreeMap<ProcessId, usize> =
        ix.procs.iter().enumerate().map(|(i, p)| (*p, i)).collect();
    for g in groups {
        for (pi, p) in ix.procs.iter().enumerate() {
            let d = &ix.digests[pi];
            if h.is_crashed(*p) || !d.views.contains_key(&g) {
                continue;
            }
            if d.departed.contains_key(&g) {
                continue; // §3: no view, no obligations after leaving
            }
            let Some(final_view) = d.views.get(&g).and_then(|v| v.last()) else {
                continue;
            };
            let final_view = ix.vtab.view(final_view.vid);
            if !final_view.contains(*p) {
                continue;
            }
            let mut delivered = BitSet::new(ix.mids.len());
            if let Some(dels) = d.by_group.get(&g) {
                for (_, cid) in dels {
                    delivered.insert(*cid);
                }
            }
            // Everything sent by a member of p's final view must be there.
            for q in final_view.members() {
                let Some(qi) = proc_pos.get(q) else { continue };
                for (_, sg, cid) in &ix.digests[*qi].sends {
                    if *sg == g && !delivered.contains(*cid) {
                        violations.push(Violation::Liveness {
                            p: *p,
                            group: g,
                            mid: ix.mid(*cid),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SimCluster;
    use newtop_sim::NetConfig;
    use newtop_types::{GroupConfig, Instant, OrderMode, Span};

    fn run_simple(mode: OrderMode) -> History {
        let mut c = SimCluster::new(3, NetConfig::new(7));
        c.bootstrap_group(GroupId(1), &[1, 2, 3], GroupConfig::new(mode));
        for k in 0..6u64 {
            c.schedule_send(
                Instant::from_micros(1000 + k * 500),
                (k % 3) as u32 + 1,
                GroupId(1),
                MessageId(k),
            );
        }
        c.run_for(Span::from_millis(500));
        c.history()
    }

    #[test]
    fn clean_symmetric_run_passes_all_checks() {
        let h = run_simple(OrderMode::Symmetric);
        let v = check_all(&h, &CheckOptions::default());
        assert!(v.is_empty(), "violations: {v:?}");
        // And the run actually delivered things.
        assert_eq!(h.delivered_mids(ProcessId(1), GroupId(1)).len(), 6);
    }

    #[test]
    fn clean_asymmetric_run_passes_all_checks() {
        let h = run_simple(OrderMode::Asymmetric);
        let v = check_all(&h, &CheckOptions::default());
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn checker_catches_fabricated_order_inversion() {
        let mut h = run_simple(OrderMode::Symmetric);
        // Swap two deliveries at P2 to fabricate an MD4 violation.
        let evs = h.events.get_mut(&ProcessId(2)).unwrap();
        let idxs: Vec<usize> = evs
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, HistoryEvent::Delivered { .. }))
            .map(|(i, _)| i)
            .collect();
        evs.swap(idxs[0], idxs[1]);
        let v = check_all(&h, &CheckOptions::default());
        assert!(
            v.iter().any(|x| matches!(x, Violation::TotalOrder { .. })),
            "fabricated inversion must be caught, got {v:?}"
        );
    }

    #[test]
    fn checker_catches_fabricated_missing_delivery() {
        let mut h = run_simple(OrderMode::Symmetric);
        let evs = h.events.get_mut(&ProcessId(3)).unwrap();
        let idx = evs
            .iter()
            .position(|e| matches!(e, HistoryEvent::Delivered { .. }))
            .unwrap();
        evs.remove(idx);
        let v = check_all(&h, &CheckOptions::default());
        assert!(!v.is_empty(), "dropped delivery must violate something");
    }

    #[test]
    fn checker_catches_fabricated_delivery_after_exclusion() {
        use newtop_core::Delivery;
        use newtop_types::{Msn, ProcessId, View, ViewSeq};
        let mut h = run_simple(OrderMode::Symmetric);
        // Fabricate at P1: a view change that excludes P2, followed by a
        // delivery originated by P2.
        let evs = h.events.get_mut(&ProcessId(1)).unwrap();
        let shrunk = View::initial([ProcessId(1), ProcessId(3)]);
        evs.push(HistoryEvent::ViewChange {
            at: Instant::from_micros(999_000),
            group: GroupId(1),
            view: shrunk.clone(),
            signed: newtop_types::SignedView::new(shrunk.iter(), 1),
        });
        evs.push(HistoryEvent::Delivered {
            at: Instant::from_micros(999_500),
            delivery: Delivery {
                group: GroupId(1),
                origin: ProcessId(2),
                c: Msn(99),
                view_seq: ViewSeq(1),
                payload: MessageId(99).to_payload(),
            },
            mid: Some(MessageId(99)),
        });
        let v = check_all(&h, &CheckOptions::default());
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::DeliveryAfterExclusion { .. })),
            "late delivery from an excluded origin must be caught, got {v:?}"
        );
    }

    #[test]
    fn checker_catches_fabricated_delivery_after_departure() {
        use newtop_core::Delivery;
        use newtop_types::{Msn, ProcessId, ViewSeq};
        let mut h = run_simple(OrderMode::Symmetric);
        let evs = h.events.get_mut(&ProcessId(2)).unwrap();
        evs.push(HistoryEvent::Departed {
            at: Instant::from_micros(999_000),
            group: GroupId(1),
        });
        evs.push(HistoryEvent::Protocol {
            at: Instant::from_micros(999_100),
            event: newtop_core::ProtocolEvent::DepartureCompleted { group: GroupId(1) },
        });
        evs.push(HistoryEvent::Delivered {
            at: Instant::from_micros(999_500),
            delivery: Delivery {
                group: GroupId(1),
                origin: ProcessId(1),
                c: Msn(98),
                view_seq: ViewSeq(0),
                payload: MessageId(98).to_payload(),
            },
            mid: Some(MessageId(98)),
        });
        let v = check_all(&h, &CheckOptions::default());
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::DeliveryAfterExclusion { .. })),
            "delivery after departure must be caught, got {v:?}"
        );
    }

    #[test]
    fn crash_run_passes_with_liveness_scoped_to_survivors() {
        let mut c = SimCluster::new(4, NetConfig::new(9));
        c.bootstrap_group(
            GroupId(1),
            &[1, 2, 3, 4],
            GroupConfig::new(OrderMode::Symmetric),
        );
        for k in 0..4u64 {
            c.schedule_send(
                Instant::from_micros(1000 + k * 300),
                (k % 4) as u32 + 1,
                GroupId(1),
                MessageId(k),
            );
        }
        c.schedule_crash(Instant::from_millis_ext(50), 4);
        c.run_for(Span::from_millis(1500));
        let h = c.history();
        let v = check_all(&h, &CheckOptions::default());
        assert!(v.is_empty(), "violations: {v:?}");
        assert!(h.is_crashed(ProcessId(4)));
    }

    #[test]
    fn bitset_insert_iter_union() {
        let mut a = BitSet::new(130);
        assert!(a.insert(0));
        assert!(a.insert(64));
        assert!(a.insert(129));
        assert!(!a.insert(64));
        assert!(a.contains(129) && !a.contains(1));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        let mut b = BitSet::new(130);
        b.insert(7);
        assert!(b.union_with(&a));
        assert!(!b.union_with(&a));
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![0, 7, 64, 129]);
    }

    trait InstantExt {
        fn from_millis_ext(ms: u64) -> Instant;
    }
    impl InstantExt for Instant {
        fn from_millis_ext(ms: u64) -> Instant {
            Instant::from_micros(ms * 1000)
        }
    }
}

//! Per-group protocol state (`GV_{x,i}` plus the ordering-layer vectors).

use crate::buffer::{DeliveryBuffer, RetentionStore};
use crate::vectors::MsnVector;
use bytes::Bytes;
use newtop_types::{
    GroupConfig, GroupId, Instant, Message, Msn, OrderMode, ProcessId, SignedView, Span, Suspicion,
    SuspicionMode, View,
};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Sorted-vector map from [`GroupId`] to [`GroupState`].
///
/// A process belongs to a handful of groups, and the delivery pump consults
/// this map many times per received message; a flat sorted `Vec` beats a
/// `BTreeMap` on both lookup and iteration at this size while keeping the
/// deterministic id-ordered iteration the protocol relies on.
///
/// The map also owns the covering relation between its groups (see
/// [`GroupState::covers`]): it is derived from the views alone, so every
/// insertion and removal recomputes it here, and a view installation calls
/// [`GroupMap::recompute_covers`].
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupMap {
    entries: Vec<(GroupId, GroupState)>,
    /// Group ids with every covering group ahead of the groups it covers
    /// (the order `tick` visits them in); id order when nothing is covered.
    tick_order: Vec<GroupId>,
}

impl GroupMap {
    pub(crate) fn new() -> GroupMap {
        GroupMap::default()
    }

    fn pos(&self, g: GroupId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&g, |(id, _)| *id)
    }

    pub(crate) fn get(&self, g: &GroupId) -> Option<&GroupState> {
        self.pos(*g).ok().map(|i| &self.entries[i].1)
    }

    pub(crate) fn get_mut(&mut self, g: &GroupId) -> Option<&mut GroupState> {
        match self.pos(*g) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    pub(crate) fn contains_key(&self, g: &GroupId) -> bool {
        self.pos(*g).is_ok()
    }

    pub(crate) fn insert(&mut self, g: GroupId, s: GroupState) -> Option<GroupState> {
        let old = match self.pos(g) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, s)),
            Err(i) => {
                self.entries.insert(i, (g, s));
                None
            }
        };
        self.recompute_covers();
        old
    }

    pub(crate) fn remove(&mut self, g: &GroupId) -> Option<GroupState> {
        let i = self.pos(*g).ok()?;
        let old = self.entries.remove(i).1;
        self.recompute_covers();
        Some(old)
    }

    /// Recomputes every group's [`GroupState::covers`] list and the tick
    /// order from the current views. Group `h` covers `g` when `h`'s view
    /// contains `g`'s; a sole-survivor `g` sends no nulls and is left out.
    pub(crate) fn recompute_covers(&mut self) {
        let mut covered_by = vec![0usize; self.entries.len()];
        for i in 0..self.entries.len() {
            let h = self.entries[i].1.view.members();
            let covers: Vec<GroupId> = self
                .entries
                .iter()
                .enumerate()
                .filter(|(j, (_, g))| *j != i && g.view.len() > 1 && g.view.members().is_subset(h))
                .map(|(j, (id, _))| {
                    covered_by[j] += 1;
                    *id
                })
                .collect();
            self.entries[i].1.covers = covers;
        }
        // Every group covering `h` also covers whatever `h` strictly
        // covers, so a strictly covered group has more coverers than its
        // coverer (groups with equal views cover each other and tie): a
        // stable sort on that count visits coverers first and keeps id
        // order among the rest.
        let mut order: Vec<(usize, GroupId)> = covered_by
            .into_iter()
            .zip(self.entries.iter().map(|(id, _)| *id))
            .collect();
        order.sort_by_key(|(n, _)| *n);
        self.tick_order = order.into_iter().map(|(_, id)| id).collect();
    }

    /// Group ids in the order `tick` visits them: every covering group
    /// before the groups it covers.
    pub(crate) fn tick_order(&self) -> &[GroupId] {
        &self.tick_order
    }

    pub(crate) fn keys(&self) -> impl Iterator<Item = &GroupId> {
        self.entries.iter().map(|(id, _)| id)
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &GroupState> {
        self.entries.iter().map(|(_, s)| s)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&GroupId, &GroupState)> {
        self.entries.iter().map(|(id, s)| (id, s))
    }
}

impl Hash for GroupMap {
    fn hash<H: Hasher>(&self, h: &mut H) {
        // `tick_order` is derived from the views.
        let GroupMap {
            entries,
            tick_order: _,
        } = self;
        entries.hash(h);
    }
}

impl<'a> IntoIterator for &'a GroupMap {
    type Item = (&'a GroupId, &'a GroupState);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (GroupId, GroupState)>,
        fn(&'a (GroupId, GroupState)) -> (&'a GroupId, &'a GroupState),
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(id, s)| (id, s))
    }
}

/// Lifecycle of an activated group at one member.
///
/// (The two-phase vote of §5.3 happens *before* a `GroupState` exists; see
/// `formation.rs`.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum GroupPhase {
    /// Formation step 5: waiting for a `start-group` message from every
    /// member of the current view before application sends may flow.
    /// Deliveries already run under the normal *safe1'* rule — a
    /// documented, strictly conservative deviation from the paper's
    /// pinned-`D` optimisation (see DESIGN.md).
    AwaitStart {
        /// Members whose start-group message has been received (or, for the
        /// local process, sent).
        starters: BTreeSet<ProcessId>,
        /// Running maximum of received start-numbers; the logical clock is
        /// raised to this on activation (step 5).
        start_number_max: Msn,
    },
    /// Normal operation.
    Active,
}

/// An adopted detection whose view `V − F` is not installed yet: one
/// entry of [`GroupState::install_queue`] (see `membership.rs` for the
/// transitions over it).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PendingInstall {
    /// `F`: the processes agreed failed. Their messages are discarded on
    /// receipt from adoption on.
    pub failed: BTreeSet<ProcessId>,
    /// What the installation waits for.
    pub gate: Gate,
}

/// What a [`PendingInstall`] waits for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Gate {
    /// Step (viii)'s `update_view(F, N)`: install once every message with
    /// `c <= N` has been delivered and none can still arrive.
    Barrier(Msn),
    /// Asymmetric groups whose sequencer is not in `F`: install where the
    /// sequencer's in-stream `ViewCut` for this detection (the pairs kept
    /// here) is delivered.
    AwaitCut(Vec<Suspicion>),
}

/// Per-member inter-arrival sample window for the accrual suspector
/// ([`SuspicionMode::Accrual`]): the newest `window` gaps between receipts
/// with a running sum for O(1) mean queries. Integer microseconds
/// throughout, so the derived timeout is bit-identical across replays.
#[derive(Debug, Clone, Default)]
pub(crate) struct ArrivalWindow {
    samples: VecDeque<u64>,
    sum: u64,
}

impl ArrivalWindow {
    fn push(&mut self, gap_us: u64, window: u8) {
        self.samples.push_back(gap_us);
        self.sum = self.sum.saturating_add(gap_us);
        while self.samples.len() > usize::from(window.max(2)) {
            let old = self.samples.pop_front().expect("len checked");
            self.sum -= old;
        }
    }

    /// The adaptive silence timeout: `clamp(mean × factor, Ω, Ω × cap)`,
    /// falling back to Ω until the window holds at least 2 samples.
    fn adaptive_span(&self, big_omega: Span, factor: u16, cap: u16) -> Span {
        if self.samples.len() < 2 {
            return big_omega;
        }
        let mean = self.sum / self.samples.len() as u64;
        Span::from_micros(mean.saturating_mul(u64::from(factor)))
            .clamp(big_omega, big_omega.saturating_mul(u64::from(cap)))
    }
}

impl Hash for ArrivalWindow {
    fn hash<H: Hasher>(&self, h: &mut H) {
        // `sum` is derived from `samples`.
        let ArrivalWindow { samples, sum: _ } = self;
        samples.hash(h);
    }
}

/// Everything one member keeps about one group.
#[derive(Debug, Clone)]
pub(crate) struct GroupState {
    pub cfg: GroupConfig,
    pub me: ProcessId,
    pub view: View,
    /// Cumulative number of processes excluded since the initial view — the
    /// `e_i` of the §6 signed-view extension.
    pub excluded_count: u32,
    /// Receive vector `RV_{x,i}`.
    pub rv: MsnVector,
    /// Stability vector `SV_{x,i}`.
    pub sv: MsnVector,
    /// Asymmetric groups: number of the last in-stream message received
    /// from the current sequencer (`D_{x,i}` of §4.2).
    pub d_asym: Msn,
    pub phase: GroupPhase,
    pub buffer: DeliveryBuffer,
    /// One retention run per member, by slot (see [`MsnVector::slot`]).
    pub retention: RetentionStore,
    /// When this member last sent anything in the group (time-silence).
    pub last_send: Instant,
    /// When each member was last heard from (failure suspector), by slot
    /// (see [`MsnVector::slot`]); the local member's entry is unused.
    last_heard: Vec<Instant>,
    /// Per-member inter-arrival sample windows feeding the accrual
    /// suspector ([`SuspicionMode::Accrual`]), by slot; all empty under
    /// the fixed-Ω mode, and the local member's always.
    arrivals: Vec<ArrivalWindow>,
    /// Own live suspicions: suspect → `ln`.
    pub suspicions: BTreeMap<ProcessId, Msn>,
    /// Which processes have multicast a `suspect` for each exact pair
    /// (gossip plus support tracking for consensus condition (v)).
    pub supporters: BTreeMap<(ProcessId, Msn), BTreeSet<ProcessId>>,
    /// Messages received from currently suspected senders, held pending the
    /// outcome of the agreement (§5.2).
    pub pending_from: BTreeMap<ProcessId, Vec<Arc<Message>>>,
    /// Confirmed messages whose detection is not yet a subset of our
    /// suspicions (step (vi) re-evaluated as suspicions grow).
    pub pending_confirms: Vec<(ProcessId, Vec<Suspicion>)>,
    /// Adopted detections not yet installed, in adoption order. Every
    /// `Barrier` entry precedes every `AwaitCut` entry: a barrier is only
    /// ever queued after absorbing all cut-awaiting entries.
    pub install_queue: VecDeque<PendingInstall>,
    /// Asymmetric groups: own unicast requests not yet seen back as relays,
    /// in submission order (drives the send-blocking rule and sequencer
    /// fail-over resubmission).
    pub outstanding: VecDeque<(Msn, Bytes)>,
    /// Asymmetric groups: sequencer requests received while this process
    /// was not (yet) the sequencer — the sender's view install can race
    /// ours, so its fail-over resubmission may arrive before our own view
    /// change makes us the sequencer. Relayed on installation, pruned of
    /// excluded origins. Keyed by `(origin, origin_c)` implicitly: a
    /// re-park of the same request replaces the old copy.
    pub parked_requests: VecDeque<(ProcessId, Msn, Bytes)>,
    /// Numbers of own application messages not yet stable (flow-control
    /// accounting).
    pub own_unstable: BTreeSet<Msn>,
    /// Set once the member has announced departure; no further sends.
    pub departing: bool,
    /// The other groups this group *covers*: those whose view is contained
    /// in this group's view (maintained by [`GroupMap`]). A numbered
    /// multicast here is the ω null of each of them — at the sender it
    /// counts as a send there, and a receiver that got it straight off the
    /// sender's FIFO link applies a null's receive effects there. Derived
    /// from the views, so not digested.
    pub covers: Vec<GroupId>,
    /// The stability bound already applied by [`GroupState::on_stability_advance`];
    /// receives whose piggybacked `ldn` does not move `min SV` skip the
    /// garbage-collection pass entirely (the common case — most receives
    /// leave the minimum where it was).
    last_stable: Msn,
    /// The local member's slot in the member tables (see
    /// [`MsnVector::slot`]), so [`GroupState::d_x`] excludes it without a
    /// member-table search.
    /// Derived from the member tables, so not digested; refreshed by
    /// [`GroupState::remove_members`].
    me_slot: Option<usize>,
    /// Lazily cached result of [`GroupState::timer_deadline`] (`None` =
    /// dirty). The engine re-reads the deadline after *every* event, so the
    /// ω/Ω scan must not rerun when nothing it reads changed; mutations go
    /// through [`GroupState::touch_timers`] / [`GroupState::note_heard`].
    timer_cache: Cell<Option<Option<Instant>>>,
}

impl GroupState {
    pub(crate) fn new(
        _id: GroupId,
        me: ProcessId,
        cfg: GroupConfig,
        members: BTreeSet<ProcessId>,
        now: Instant,
        phase: GroupPhase,
    ) -> GroupState {
        let view = View::initial(members.iter().copied());
        let rv = MsnVector::new(members.iter().copied());
        let sv = MsnVector::new(members.iter().copied());
        let me_slot = rv.slot(me);
        let n = rv.len();
        GroupState {
            cfg,
            me,
            view,
            excluded_count: 0,
            rv,
            sv,
            d_asym: Msn::ZERO,
            phase,
            buffer: DeliveryBuffer::new(),
            retention: RetentionStore::new(n),
            last_send: now,
            last_heard: vec![now; n],
            arrivals: vec![ArrivalWindow::default(); n],
            suspicions: BTreeMap::new(),
            supporters: BTreeMap::new(),
            pending_from: BTreeMap::new(),
            pending_confirms: Vec::new(),
            install_queue: VecDeque::new(),
            outstanding: VecDeque::new(),
            parked_requests: VecDeque::new(),
            own_unstable: BTreeSet::new(),
            departing: false,
            covers: Vec::new(),
            last_stable: Msn::ZERO,
            me_slot,
            timer_cache: Cell::new(None),
        }
    }

    /// Drops `failed` from every member table — `rv`, `sv`, `last_heard`,
    /// `arrivals` and the retention runs, which stay aligned by slot and
    /// equal to the view's member set, the invariant the receive path's
    /// one slot lookup per message relies on — and refreshes the local
    /// member's cached slot.
    pub(crate) fn remove_members(&mut self, failed: &BTreeSet<ProcessId>) {
        for pk in failed {
            let Some(slot) = self.rv.slot(*pk) else {
                continue;
            };
            self.rv.remove(*pk);
            self.sv.remove(*pk);
            self.last_heard.remove(slot);
            self.arrivals.remove(slot);
            self.retention.remove_slot(slot);
        }
        self.me_slot = self.rv.slot(self.me);
    }

    /// Whether `rv` and `sv` track exactly the view's members, the other
    /// member tables have one entry per slot, each retention run holds only
    /// its member's messages and the cached local slot is current. O(n).
    pub(crate) fn member_tables_coherent(&self) -> bool {
        let (view, n) = (self.view.members(), self.rv.len());
        self.rv.members().iter().eq(view.iter())
            && self.sv.members().iter().eq(view.iter())
            && self.last_heard.len() == n
            && self.arrivals.len() == n
            && self.retention.runs_belong_to(self.rv.members())
            && self.me_slot == self.rv.slot(self.me)
    }

    /// Retains `m` for the §5.2 recovery path unless it is already stable
    /// (numbered at or below the applied stability bound): every member
    /// holds a stable message, so no refute ever needs to carry it (§5.1).
    /// Only a late original of a copy a refutation piggyback overtook can
    /// be stable on arrival; retaining it would re-add a message the last
    /// collection dropped. `slot` is the sender's (see [`MsnVector::slot`]).
    pub(crate) fn retain_unstable(&mut self, slot: usize, m: &Arc<Message>) {
        if m.is_retained() && m.c > self.last_stable {
            self.retention.store(slot, m);
        }
    }

    /// Whether the retention store keeps each sender's run in strict
    /// number order with nothing at or below the applied stability bound.
    /// Audit hook; O(n).
    pub(crate) fn retention_coherent(&self) -> bool {
        self.retention.runs_coherent(self.last_stable)
    }

    /// Invalidates the cached timer deadline. Call after mutating anything
    /// [`GroupState::timer_deadline`] reads: `last_send`, `view`,
    /// `suspicions`, `install_queue` or `last_heard`
    /// (receives should prefer [`GroupState::note_heard`], which keeps the
    /// cache when the bump provably cannot move the minimum).
    pub(crate) fn touch_timers(&self) {
        self.timer_cache.set(None);
    }

    /// Records hearing from the member at `slot` (see [`MsnVector::slot`])
    /// at `now` — feeding the accrual detector's inter-arrival window when
    /// enabled — and invalidates the timer cache only when necessary:
    /// raising a `last_heard` entry whose silence deadline was strictly
    /// later than the cached minimum cannot change that minimum provided
    /// the member's *new* deadline also stays above it. The adaptive span
    /// never drops below Ω, so `now + Ω` is a safe lower bound on the new
    /// deadline even though the fresh sample may have shrunk the member's
    /// span. This keeps the cache on the overwhelmingly common receive —
    /// the earliest deadline is usually the ω null-send deadline, untouched
    /// here.
    pub(crate) fn note_heard(&mut self, slot: usize, now: Instant) {
        let old_span = self.suspicion_span(slot);
        let prev = std::mem::replace(&mut self.last_heard[slot], now);
        if let SuspicionMode::Accrual { window, .. } = self.cfg.suspicion {
            self.arrivals[slot].push(now.saturating_since(prev).as_micros(), window);
        }
        let keep = |t: Instant| prev + old_span > t && now + self.cfg.big_omega > t;
        if self.timer_cache.get().is_some_and(|c| !c.is_some_and(keep)) {
            self.timer_cache.set(None);
        }
    }

    /// Restarts `p`'s silence timer at `now` without an inter-arrival
    /// sample: a withdrawn suspicion (§5.2 step (iv)). Only ever called
    /// while `p` is in the view (a live suspicion names a member); a
    /// non-member is not recorded.
    pub(crate) fn restart_silence(&mut self, p: ProcessId, now: Instant) {
        if let Some(slot) = self.rv.slot(p) {
            self.last_heard[slot] = now;
        }
        self.touch_timers();
    }

    /// The silence timeout after which the suspector suspects the member
    /// at `slot`: the fixed Ω (§5.2), or the accrual detector's adaptive
    /// timeout derived from its observed inter-arrival times.
    fn suspicion_span(&self, slot: usize) -> Span {
        match self.cfg.suspicion {
            SuspicionMode::FixedOmega => self.cfg.big_omega,
            SuspicionMode::Accrual { factor, cap, .. } => {
                self.arrivals[slot].adaptive_span(self.cfg.big_omega, factor, cap)
            }
        }
    }

    /// `j`'s silence as a fraction of its suspicion timeout, in permille
    /// (1000 = at the exclusion threshold) — the accrual detector's
    /// "suspicion level". Also meaningful (silence/Ω) under the fixed mode.
    /// `None` for the local member and for a non-member (one never in the
    /// view, or excluded): the suspector watches neither.
    pub(crate) fn suspicion_level_permille(&self, j: ProcessId, now: Instant) -> Option<u64> {
        let slot = self.rv.slot(j).filter(|s| Some(*s) != self.me_slot)?;
        let span = self.suspicion_span(slot).as_micros().max(1);
        Some(
            now.saturating_since(self.last_heard[slot])
                .as_micros()
                .saturating_mul(1000)
                / span,
        )
    }

    /// The earliest instant this group's `tick` machinery has work to do:
    /// the ω null-send deadline (only when co-members exist) and the
    /// silence deadline per unsuspected co-member (fixed Ω or the accrual
    /// detector's adaptive timeout). Cached between events; see
    /// [`GroupState::touch_timers`].
    pub(crate) fn timer_deadline(&self) -> Option<Instant> {
        if let Some(cached) = self.timer_cache.get() {
            return cached;
        }
        let next = self.compute_timer_deadline();
        self.timer_cache.set(Some(next));
        next
    }

    /// The uncached ω/Ω argmin scan behind [`GroupState::timer_deadline`].
    fn compute_timer_deadline(&self) -> Option<Instant> {
        let null = (self.view.len() > 1).then(|| self.last_send + self.cfg.omega);
        null.into_iter()
            .chain(self.silence_deadlines().map(|(_, t)| t))
            .min()
    }

    /// Each co-member the suspector watches — unsuspected and not failed —
    /// with its silence deadline (last receipt plus suspicion span), in
    /// id order: one walk over the member tables.
    fn silence_deadlines(&self) -> impl Iterator<Item = (ProcessId, Instant)> + '_ {
        let members = self.rv.members().iter().zip(&self.last_heard);
        members
            .enumerate()
            .filter(|(slot, (j, _))| {
                Some(*slot) != self.me_slot && !self.is_suspected(**j) && !self.is_failed(**j)
            })
            .map(|(slot, (j, heard))| (*j, *heard + self.suspicion_span(slot)))
    }

    /// The co-members whose silence has reached their suspicion timeout at
    /// `now`, unsuspected and not failed — what the suspector `S_i` (§5.2)
    /// reports on a tick — in id order.
    pub(crate) fn silent(&self, now: Instant) -> Vec<ProcessId> {
        self.silence_deadlines()
            .filter(|(_, t)| *t <= now)
            .map(|(j, _)| j)
            .collect()
    }

    /// Whether the memoised timer deadline (if any) matches a recomputed
    /// argmin — the invariant `touch_timers`'s call discipline and
    /// `note_heard`'s conditional invalidation maintain. Audit hook; O(n).
    pub(crate) fn timer_cache_coherent(&self) -> bool {
        match self.timer_cache.get() {
            None => true, // dirty: next read recomputes
            Some(cached) => cached == self.compute_timer_deadline(),
        }
    }

    /// The group-local deliverability bound `D_{x,i}` (conditions *safe1*
    /// / *safe1'*): minimum of the receive vector over *other* members for
    /// symmetric groups (one's own CA1-numbered sends can never undercut
    /// the local clock, so the own entry is no constraint), the last
    /// sequencer stream position for asymmetric ones. A sole-survivor view
    /// constrains nothing.
    pub(crate) fn d_x(&self) -> Msn {
        if self.view.len() <= 1 {
            return Msn::INFINITY;
        }
        match self.cfg.mode {
            OrderMode::Symmetric => match self.me_slot {
                Some(i) => self.rv.min_live_excluding_at(i),
                None => self.rv.min_live(),
            },
            OrderMode::Asymmetric => self.d_asym,
        }
    }

    /// Deterministic sequencer of the current view (§4.2).
    pub(crate) fn sequencer(&self) -> Option<ProcessId> {
        self.view.sequencer()
    }

    /// Whether this member is the current sequencer.
    pub(crate) fn is_sequencer(&self) -> bool {
        self.sequencer() == Some(self.me)
    }

    /// Whether `p` is in an adopted-but-not-yet-installed detection; its
    /// messages are discarded on receipt ("Pi discards any messages
    /// received from Pk and GVk, if Pk ∈ failed").
    pub(crate) fn is_failed(&self, p: ProcessId) -> bool {
        !self.install_queue.is_empty() && self.install_queue.iter().any(|i| i.failed.contains(&p))
    }

    /// Whether `p` has a live suspicion here (O(1) when there is none, the
    /// common case on the receive path).
    pub(crate) fn is_suspected(&self, p: ProcessId) -> bool {
        !self.suspicions.is_empty() && self.suspicions.contains_key(&p)
    }

    /// The bound `N` of the queue's head when the head waits on a number
    /// barrier: no delivery with `c > N` may precede that installation.
    pub(crate) fn head_barrier(&self) -> Option<Msn> {
        match self.install_queue.front()?.gate {
            Gate::Barrier(bound) => Some(bound),
            Gate::AwaitCut(_) => None,
        }
    }

    /// The §6 signed view `ϑ_i`.
    pub(crate) fn signed_view(&self) -> SignedView {
        SignedView::new(self.view.iter(), self.excluded_count)
    }

    /// Number of own unstable messages plus outstanding unicasts — the
    /// quantity bounded by the flow-control window.
    pub(crate) fn flow_in_use(&self) -> usize {
        self.own_unstable.len() + self.outstanding.len()
    }

    /// Whether the flow-control window (if any) has room for another send.
    pub(crate) fn flow_has_room(&self) -> bool {
        match self.cfg.flow_window {
            None => true,
            Some(w) => self.flow_in_use() < w as usize,
        }
    }

    /// Applies "the member at `slot` (see [`crate::MsnVector::slot`]) has
    /// sent everything it numbered up to `c` here, reporting `ldn`": its
    /// `RV` entry rises to `c`, its `SV` entry to `ldn` (`Msn::ZERO`
    /// reports nothing), and when it sequences an asymmetric group its
    /// stream position `d_asym` rises to `c` too. Receivers count every
    /// message from the sequencer, nulls included, so the sequencer counts
    /// its own the same way, or its own D would lag its members' and its
    /// deliveries wedge.
    #[inline]
    pub(crate) fn advance_stream(&mut self, slot: usize, c: Msn, ldn: Msn) {
        self.rv.advance_at(slot, c);
        self.sv.advance_at(slot, ldn);
        if self.cfg.mode == OrderMode::Asymmetric
            && self.sequencer() == Some(self.rv.members()[slot])
        {
            self.d_asym = self.d_asym.max(c);
        }
    }

    /// Prunes stability-dependent state after `SV` advanced. O(1) when the
    /// stability bound has not moved since the last call (message numbers
    /// start at 1, so the initial bound of 0 never has anything to prune);
    /// the garbage-collection pass runs only on an actual advance.
    pub(crate) fn on_stability_advance(&mut self) {
        let stable = self.sv.min_live();
        if stable == self.last_stable {
            return;
        }
        self.last_stable = stable;
        self.retention.gc_stable(stable);
        while self.own_unstable.first().is_some_and(|c| *c <= stable) {
            self.own_unstable.pop_first();
        }
    }
}

impl Hash for GroupState {
    fn hash<H: Hasher>(&self, h: &mut H) {
        // Every field except `covers` (derived from the views of all
        // groups), `me_slot` (derived from the member tables) and
        // `timer_cache` (memoised derived state — two states must not hash
        // apart just because one has read its deadline since the last
        // mutation). `last_stable` IS digested: it gates the O(1) fast path
        // of `on_stability_advance`, so it influences future garbage
        // collection.
        let GroupState {
            cfg,
            me,
            view,
            excluded_count,
            rv,
            sv,
            d_asym,
            phase,
            buffer,
            retention,
            last_send,
            last_heard,
            arrivals,
            suspicions,
            supporters,
            pending_from,
            pending_confirms,
            install_queue,
            outstanding,
            parked_requests,
            own_unstable,
            departing,
            covers: _,
            last_stable,
            me_slot: _,
            timer_cache: _,
        } = self;
        cfg.hash(h);
        me.hash(h);
        view.hash(h);
        excluded_count.hash(h);
        rv.hash(h);
        sv.hash(h);
        d_asym.hash(h);
        phase.hash(h);
        buffer.hash(h);
        retention.hash(h);
        last_send.hash(h);
        // `last_heard` and `arrivals` as the id-keyed maps they stand for:
        // no local entry, no empty window.
        hash_by_member(rv.members(), last_heard, |id, _| id != me, h);
        let sampled = |id: &ProcessId, w: &ArrivalWindow| id != me && !w.samples.is_empty();
        hash_by_member(rv.members(), arrivals, sampled, h);
        suspicions.hash(h);
        supporters.hash(h);
        pending_from.hash(h);
        pending_confirms.hash(h);
        install_queue.hash(h);
        outstanding.hash(h);
        parked_requests.hash(h);
        own_unstable.hash(h);
        departing.hash(h);
        last_stable.hash(h);
    }
}

/// Feeds `h` the bytes of an id-keyed map of the member table `entries`
/// (aligned with `members`) restricted to the entries `keep` selects: their
/// count, then each `(member, entry)` in id order.
fn hash_by_member<T: Hash, H: Hasher>(
    members: &[ProcessId],
    entries: &[T],
    keep: impl Fn(&ProcessId, &T) -> bool,
    h: &mut H,
) {
    let kept = || members.iter().zip(entries).filter(|(id, e)| keep(id, e));
    h.write_usize(kept().count());
    kept().for_each(|entry| entry.hash(h));
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtop_types::digest::{digest_of, DigestHasher};
    use newtop_types::{DeliveryMode, MessageBody};
    use proptest::prelude::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    fn state(mode: OrderMode) -> GroupState {
        let cfg = GroupConfig::new(mode).with_flow_window(2);
        GroupState::new(
            GroupId(1),
            p(2),
            cfg,
            [p(1), p(2), p(3)].into(),
            Instant::ZERO,
            GroupPhase::Active,
        )
    }

    #[test]
    fn d_x_symmetric_is_rv_min_over_others() {
        // The local member is P2; its own entry does not constrain D.
        let mut gs = state(OrderMode::Symmetric);
        gs.rv.advance(p(1), Msn(3));
        gs.rv.advance(p(2), Msn(1));
        gs.rv.advance(p(3), Msn(5));
        assert_eq!(gs.d_x(), Msn(3));
    }

    #[test]
    fn singleton_view_constrains_nothing() {
        let mut gs = state(OrderMode::Symmetric);
        gs.view = gs.view.excluding([p(1), p(3)].into());
        assert_eq!(gs.d_x(), Msn::INFINITY);
    }

    #[test]
    fn d_x_asymmetric_is_stream_position() {
        let mut gs = state(OrderMode::Asymmetric);
        gs.rv.advance(p(1), Msn(3));
        gs.d_asym = Msn(7);
        assert_eq!(gs.d_x(), Msn(7));
    }

    #[test]
    fn sequencer_is_min_member_of_view() {
        let gs = state(OrderMode::Asymmetric);
        assert_eq!(gs.sequencer(), Some(p(1)));
        assert!(!gs.is_sequencer()); // we are P2
    }

    #[test]
    fn is_failed_covers_barrier_and_cut_entries() {
        let mut gs = state(OrderMode::Asymmetric);
        gs.install_queue.push_back(PendingInstall {
            failed: [p(1)].into(),
            gate: Gate::Barrier(Msn(4)),
        });
        gs.install_queue.push_back(PendingInstall {
            failed: [p(3)].into(),
            gate: Gate::AwaitCut(vec![Suspicion {
                suspect: p(3),
                ln: Msn(2),
            }]),
        });
        assert!(gs.is_failed(p(1)) && gs.is_failed(p(3)) && !gs.is_failed(p(2)));
        assert_eq!(gs.head_barrier(), Some(Msn(4)));
        gs.install_queue.pop_front();
        assert_eq!(gs.head_barrier(), None, "a cut-awaiting head is no barrier");
    }

    #[test]
    fn flow_accounting_counts_unstable_and_outstanding() {
        let mut gs = state(OrderMode::Asymmetric);
        assert!(gs.flow_has_room());
        gs.own_unstable.insert(Msn(4));
        gs.outstanding.push_back((Msn(5), Bytes::new()));
        assert_eq!(gs.flow_in_use(), 2);
        assert!(!gs.flow_has_room()); // window is 2
    }

    #[test]
    fn stability_advance_prunes_own_unstable() {
        let mut gs = state(OrderMode::Symmetric);
        gs.own_unstable.extend([Msn(1), Msn(2), Msn(5)]);
        gs.sv.advance(p(1), Msn(2));
        gs.sv.advance(p(2), Msn(2));
        gs.sv.advance(p(3), Msn(2));
        gs.on_stability_advance();
        assert_eq!(gs.own_unstable.len(), 1);
        assert!(gs.own_unstable.contains(&Msn(5)));
    }

    #[test]
    fn a_late_stable_original_is_not_retained_again() {
        let mut gs = state(OrderMode::Symmetric);
        let null = |c| {
            Arc::new(Message {
                group: GroupId(1),
                sender: p(1),
                c: Msn(c),
                ldn: Msn(0),
                body: MessageBody::Null,
            })
        };
        gs.retain_unstable(0, &null(1));
        gs.retain_unstable(0, &null(2));
        for q in 1..=3 {
            gs.sv.advance(p(q), Msn(1));
        }
        gs.on_stability_advance();
        assert_eq!(gs.retention.len(), 1);
        gs.retain_unstable(0, &null(1)); // the original of a collected copy
        assert_eq!(gs.retention.len(), 1);
        assert!(gs.retention_coherent());
    }

    #[test]
    fn member_removal_keeps_the_tables_equal_to_the_view() {
        let mut gs = state(OrderMode::Symmetric); // we are P2
        assert!(gs.member_tables_coherent());
        gs.rv.advance(p(1), Msn(9));
        gs.rv.advance(p(2), Msn(1));
        gs.rv.advance(p(3), Msn(4));
        let failed: BTreeSet<ProcessId> = [p(1)].into();
        gs.view = gs.view.excluding(failed.clone());
        gs.remove_members(&failed);
        assert!(gs.member_tables_coherent());
        // Our slot moved from 1 to 0; D still excludes our own entry.
        assert_eq!(gs.d_x(), Msn(4));
        // A view change without the table update is what the audit catches.
        gs.view = gs.view.excluding([p(3)].into());
        assert!(!gs.member_tables_coherent());
    }

    #[test]
    fn restarting_silence_records_only_members() {
        let mut gs = state(OrderMode::Symmetric); // we are P2
        let before = digest_of(&gs);
        let t = Instant::from_micros(5_000);
        gs.restart_silence(p(9), t);
        assert_eq!(digest_of(&gs), before, "a non-member is not recorded");
        let failed: BTreeSet<ProcessId> = [p(3)].into();
        gs.view = gs.view.excluding(failed.clone());
        gs.remove_members(&failed);
        let excluded = digest_of(&gs);
        gs.restart_silence(p(3), t);
        assert_eq!(digest_of(&gs), excluded, "nor an excluded member");
        assert_eq!(gs.suspicion_level_permille(p(3), t), None);
        gs.restart_silence(p(1), t);
        assert_eq!(gs.suspicion_level_permille(p(1), t), Some(0));
        assert!(gs.member_tables_coherent() && gs.timer_cache_coherent());
    }

    #[test]
    fn accrual_span_floors_at_big_omega_until_two_samples() {
        let mut w = ArrivalWindow::default();
        let big = Span::from_millis(100);
        assert_eq!(w.adaptive_span(big, 6, 8), big);
        w.push(30_000, 8);
        assert_eq!(w.adaptive_span(big, 6, 8), big); // one sample: still Ω
        w.push(30_000, 8);
        // mean 30ms × factor 6 = 180ms, inside [Ω, Ω×cap].
        assert_eq!(w.adaptive_span(big, 6, 8), Span::from_millis(180));
    }

    #[test]
    fn accrual_span_clamps_to_floor_and_cap() {
        let big = Span::from_millis(100);
        let mut fast = ArrivalWindow::default();
        fast.push(1_000, 8);
        fast.push(1_000, 8); // mean 1ms × 6 = 6ms < Ω → floor at Ω
        assert_eq!(fast.adaptive_span(big, 6, 8), big);
        let mut slow = ArrivalWindow::default();
        slow.push(500_000, 8);
        slow.push(500_000, 8); // mean 500ms × 6 = 3s > Ω×8 → cap
        assert_eq!(slow.adaptive_span(big, 6, 8), Span::from_millis(800));
    }

    #[test]
    fn accrual_window_evicts_oldest_samples() {
        let mut w = ArrivalWindow::default();
        for _ in 0..4 {
            w.push(1_000_000, 2);
        }
        w.push(10_000, 2);
        w.push(10_000, 2);
        // Only the last two samples survive: mean 10ms × 2 = 20ms.
        assert_eq!(
            w.adaptive_span(Span::from_millis(1), 2, 1000),
            Span::from_millis(20)
        );
    }

    #[test]
    fn note_heard_keeps_timer_cache_coherent_under_accrual() {
        let cfg = GroupConfig::new(OrderMode::Symmetric)
            .with_omega(Span::from_millis(10))
            .with_big_omega(Span::from_millis(100))
            .with_suspicion(SuspicionMode::accrual());
        let mut gs = GroupState::new(
            GroupId(1),
            p(2),
            cfg,
            [p(1), p(2), p(3)].into(),
            Instant::ZERO,
            GroupPhase::Active,
        );
        let mut now = Instant::ZERO;
        for (i, gap) in [7u64, 31, 2, 55, 13, 90, 1, 40, 70, 5].iter().enumerate() {
            now += Span::from_millis(*gap);
            let from = if i % 3 == 0 { p(1) } else { p(3) };
            let _ = gs.timer_deadline(); // populate the memoized deadline
            gs.note_heard(gs.rv.slot(from).expect("member"), now);
            assert!(
                gs.timer_cache_coherent(),
                "cache incoherent after sample {i}"
            );
        }
    }

    #[test]
    fn await_start_phase_constructs() {
        let gs2 = GroupState::new(
            GroupId(2),
            p(1),
            GroupConfig::new(OrderMode::Symmetric).with_delivery(DeliveryMode::Total),
            [p(1)].into(),
            Instant::ZERO,
            GroupPhase::AwaitStart {
                starters: BTreeSet::new(),
                start_number_max: Msn::ZERO,
            },
        );
        assert!(matches!(gs2.phase, GroupPhase::AwaitStart { .. }));
        assert!(!gs2.departing);
    }

    #[test]
    fn timer_cache_audit_and_digest_ignore_memoisation() {
        use newtop_types::digest::digest_of;
        let mut gs = state(OrderMode::Symmetric);
        assert!(
            gs.timer_cache_coherent(),
            "dirty cache is trivially coherent"
        );
        let before = digest_of(&gs);
        let _ = gs.timer_deadline(); // fills the memo
        assert!(gs.timer_cache_coherent());
        assert_eq!(
            digest_of(&gs),
            before,
            "reading the deadline must not move the digest"
        );
        // note_heard's conditional invalidation keeps the audit green both
        // when it preserves and when it drops the cache.
        gs.note_heard(2, Instant::from_micros(1)); // P3's slot
        assert!(gs.timer_cache_coherent());
        assert_ne!(digest_of(&gs), before, "last_heard is observable state");
        // A stale memo is corruption the audit must catch.
        let _ = gs.timer_deadline();
        gs.last_send = Instant::from_micros(500_000);
        assert!(!gs.timer_cache_coherent(), "mutation without touch_timers");
        gs.touch_timers();
        assert!(gs.timer_cache_coherent());
    }

    #[test]
    fn signed_view_tracks_exclusions() {
        let mut gs = state(OrderMode::Symmetric);
        assert_eq!(gs.signed_view().excluded_count(), 0);
        gs.view = gs.view.excluding([p(3)].into());
        gs.excluded_count += 1;
        let sv = gs.signed_view();
        assert_eq!(sv.excluded_count(), 1);
        assert_eq!(sv.members().len(), 2);
    }

    /// The id-keyed maps the member tables replaced, kept as the
    /// executable specification: each query is the map-based code the
    /// slot tables took over, and `digest` hashes a `GroupState` as it did
    /// with the maps in place of the tables.
    #[derive(Default)]
    struct MapModel {
        last_heard: BTreeMap<ProcessId, Instant>,
        arrivals: BTreeMap<ProcessId, ArrivalWindow>,
        retention: BTreeMap<ProcessId, BTreeMap<Msn, Arc<Message>>>,
    }

    impl MapModel {
        fn new(gs: &GroupState, now: Instant) -> MapModel {
            let co = gs.view.iter().filter(|q| *q != gs.me);
            MapModel {
                last_heard: co.map(|q| (q, now)).collect(),
                ..MapModel::default()
            }
        }

        fn note_heard(&mut self, gs: &GroupState, from: ProcessId, now: Instant) {
            let prev = self.last_heard.insert(from, now);
            if let (SuspicionMode::Accrual { window, .. }, Some(prev)) = (gs.cfg.suspicion, prev) {
                self.arrivals
                    .entry(from)
                    .or_default()
                    .push(now.saturating_since(prev).as_micros(), window);
            }
        }

        fn span(&self, gs: &GroupState, j: ProcessId) -> Span {
            match gs.cfg.suspicion {
                SuspicionMode::FixedOmega => gs.cfg.big_omega,
                SuspicionMode::Accrual { factor, cap, .. } => {
                    self.arrivals.get(&j).map_or(gs.cfg.big_omega, |w| {
                        w.adaptive_span(gs.cfg.big_omega, factor, cap)
                    })
                }
            }
        }

        fn level(&self, gs: &GroupState, j: ProcessId, now: Instant) -> Option<u64> {
            let heard = self.last_heard.get(&j)?;
            let span = self.span(gs, j).as_micros().max(1);
            Some(
                now.saturating_since(*heard)
                    .as_micros()
                    .saturating_mul(1000)
                    / span,
            )
        }

        fn deadline(&self, gs: &GroupState) -> Option<Instant> {
            let mut next = (gs.view.len() > 1).then(|| gs.last_send + gs.cfg.omega);
            for (j, heard) in &self.last_heard {
                if !gs.suspicions.contains_key(j) && !gs.is_failed(*j) {
                    let t = *heard + self.span(gs, *j);
                    next = Some(next.map_or(t, |n| n.min(t)));
                }
            }
            next
        }

        fn silent(&self, gs: &GroupState, now: Instant) -> Vec<ProcessId> {
            self.last_heard
                .iter()
                .filter(|(j, heard)| {
                    now.saturating_since(**heard) >= self.span(gs, **j)
                        && **j != gs.me
                        && gs.view.contains(**j)
                        && !gs.is_suspected(**j)
                        && !gs.is_failed(**j)
                })
                .map(|(j, _)| *j)
                .collect()
        }

        fn retain(&mut self, gs: &GroupState, m: &Arc<Message>) {
            if m.c > gs.last_stable {
                let run = self.retention.entry(m.sender).or_default();
                run.insert(m.c, Arc::clone(m));
            }
        }

        fn gc(&mut self, stable: Msn) {
            for run in self.retention.values_mut() {
                run.retain(|c, _| *c > stable);
            }
        }

        fn remove(&mut self, pk: ProcessId) {
            self.last_heard.remove(&pk);
            self.arrivals.remove(&pk);
            self.retention.remove(&pk);
        }

        fn digest(&self, gs: &GroupState) -> u64 {
            let mut h = DigestHasher::new();
            gs.cfg.hash(&mut h);
            gs.me.hash(&mut h);
            gs.view.hash(&mut h);
            gs.excluded_count.hash(&mut h);
            gs.rv.hash(&mut h);
            gs.sv.hash(&mut h);
            gs.d_asym.hash(&mut h);
            gs.phase.hash(&mut h);
            gs.buffer.hash(&mut h);
            let live: Vec<_> = self
                .retention
                .iter()
                .filter(|(_, r)| !r.is_empty())
                .collect();
            h.write_usize(live.len());
            for (sender, run) in live {
                sender.hash(&mut h);
                h.write_usize(run.len());
                run.values().for_each(|m| m.hash(&mut h));
            }
            gs.last_send.hash(&mut h);
            self.last_heard.hash(&mut h);
            self.arrivals.hash(&mut h);
            gs.suspicions.hash(&mut h);
            gs.supporters.hash(&mut h);
            gs.pending_from.hash(&mut h);
            gs.pending_confirms.hash(&mut h);
            gs.install_queue.hash(&mut h);
            gs.outstanding.hash(&mut h);
            gs.parked_requests.hash(&mut h);
            gs.own_unstable.hash(&mut h);
            gs.departing.hash(&mut h);
            gs.last_stable.hash(&mut h);
            h.finish()
        }
    }

    /// `(suspector mode, members — the first is the local one, ops)`; an
    /// op is `(selector, process, value)`, processes drawn wider than the
    /// members so non-members are queried too.
    type Case = (u8, Vec<u32>, Vec<(u8, u32, u64)>);

    fn arb_case() -> impl Strategy<Value = Case> {
        (
            0u8..4,
            proptest::collection::vec(1u32..10, 2..8),
            proptest::collection::vec((0u8..10, 0u32..12, 0u64..300), 0..200),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Receipts, own sends, suspicions, refutes, adopted failures
        /// with their discards, and exclusions, under the fixed and the
        /// accrual suspector: after every step the slot tables answer as
        /// the id-keyed maps and hash to the same bytes.
        #[test]
        fn member_tables_answer_as_the_id_keyed_maps((mode, ids, ops) in arb_case()) {
            let suspicion = match mode {
                0 => SuspicionMode::FixedOmega,
                w => SuspicionMode::Accrual { window: w + 1, factor: 3, cap: 4 },
            };
            let cfg = GroupConfig::new(OrderMode::Symmetric)
                .with_omega(Span::from_millis(10))
                .with_big_omega(Span::from_millis(100))
                .with_suspicion(suspicion);
            let me = p(ids[0]);
            let members = ids.iter().copied().map(p).collect();
            let mut gs =
                GroupState::new(GroupId(1), me, cfg, members, Instant::ZERO, GroupPhase::Active);
            let mut model = MapModel::new(&gs, Instant::ZERO);
            let (mut now, mut c) = (Instant::ZERO, 0u64);
            let msg = |from: ProcessId, c: u64, v: u64| {
                Arc::new(Message {
                    group: GroupId(1),
                    sender: from,
                    c: Msn(c),
                    ldn: Msn(c.saturating_sub(v % 8)),
                    body: MessageBody::Null,
                })
            };
            for (step, (sel, who, v)) in ops.into_iter().enumerate() {
                let j = p(who);
                let slot = gs.rv.slot(j);
                let co = slot.is_some() && j != me && !gs.is_failed(j);
                match (sel, slot) {
                    // A receipt, in the receive path's order.
                    (0..=3, Some(slot)) if co && !gs.is_suspected(j) => {
                        now += Span::from_micros(v * 300);
                        c += 1 + v % 3;
                        let m = msg(j, c, v);
                        gs.note_heard(slot, now);
                        model.note_heard(&gs, j, now);
                        gs.advance_stream(slot, m.c, m.ldn);
                        gs.on_stability_advance();
                        model.gc(gs.last_stable);
                        gs.retain_unstable(slot, &m);
                        model.retain(&gs, &m);
                    }
                    (4, _) => {
                        c += 1;
                        let (m, mine) = (msg(me, c, v), gs.me_slot.expect("member"));
                        gs.advance_stream(mine, m.c, m.ldn);
                        gs.retain_unstable(mine, &m);
                        model.retain(&gs, &m);
                        gs.last_send = now;
                        gs.touch_timers();
                    }
                    (5, _) if co && !gs.is_suspected(j) => {
                        gs.suspicions.insert(j, gs.rv.get(j));
                        gs.touch_timers();
                    }
                    // A refute withdraws the suspicion (`withdraw_suspicion`).
                    (6, _) if gs.is_suspected(j) => {
                        gs.suspicions.remove(&j);
                        gs.restart_silence(j, now);
                        model.last_heard.insert(j, now);
                    }
                    // Adoption: release, discard above the bound, queue.
                    (7, Some(slot)) if co => {
                        let bound = Msn(v % (c + 1));
                        gs.suspicions.remove(&j);
                        gs.rv.set_infinite(j);
                        gs.sv.set_infinite(j);
                        gs.on_stability_advance();
                        model.gc(gs.last_stable);
                        gs.retention.discard_from_above(slot, bound);
                        if let Some(run) = model.retention.get_mut(&j) {
                            run.retain(|c, _| *c <= bound);
                        }
                        gs.install_queue.push_back(PendingInstall {
                            failed: [j].into(),
                            gate: Gate::Barrier(bound),
                        });
                        gs.touch_timers();
                    }
                    // Exclusion: the head adoption installs.
                    (8, _) if !gs.install_queue.is_empty() => {
                        let failed = gs.install_queue.pop_front().expect("nonempty").failed;
                        gs.view = gs.view.excluding(failed.clone());
                        gs.excluded_count += failed.len() as u32;
                        gs.remove_members(&failed);
                        for pk in &failed {
                            gs.suspicions.remove(pk);
                            model.remove(*pk);
                        }
                        gs.touch_timers();
                        gs.on_stability_advance();
                        model.gc(gs.last_stable);
                    }
                    _ => now += Span::from_micros(v * 997),
                }
                prop_assert!(gs.member_tables_coherent(), "tables after step {}", step);
                prop_assert!(gs.retention_coherent() && gs.timer_cache_coherent());
                let deadline = model.deadline(&gs);
                prop_assert_eq!(gs.timer_deadline(), deadline, "deadline, step {}", step);
                let ahead = [now + Span::from_millis(60), now + Span::from_millis(250)];
                for later in [now].into_iter().chain(deadline).chain(ahead) {
                    prop_assert_eq!(gs.silent(later), model.silent(&gs, later), "step {}", step);
                    for q in (0..12).map(p) {
                        prop_assert_eq!(
                            gs.suspicion_level_permille(q, later),
                            model.level(&gs, q, later)
                        );
                    }
                }
                prop_assert_eq!(digest_of(&gs), model.digest(&gs), "digest after step {}", step);
            }
        }
    }
}

//! The Newtop protocol engine: one [`Process`] instance per participant.
//!
//! `Process` is a *sans-IO* state machine. Hosts feed it received envelopes
//! ([`Process::handle`]), timer ticks ([`Process::tick`]) and application
//! requests ([`Process::multicast`], [`Process::depart`],
//! [`Process::initiate_group`]); it returns [`Action`]s to execute. The same
//! engine therefore runs identically under the deterministic simulator, the
//! threaded runtime and plain unit tests.

use crate::action::{Action, Delivery, ProcessStats, ProtocolEvent};

use crate::clock::LogicalClock;
use crate::formation::Forming;
use crate::group::{GroupMap, GroupPhase, GroupState};
use bytes::Bytes;
use newtop_types::{
    ConfigError, DeliveryMode, Envelope, FormationDecision, GroupConfig, GroupId, Instant, Message,
    MessageBody, Msn, OrderMode, ProcessConfig, ProcessId, SendError, SignedView, Suspicion, View,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Why a group could not be created or joined into formation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupError {
    /// A group (or formation attempt) with this identifier already exists.
    AlreadyExists {
        /// The conflicting identifier.
        group: GroupId,
    },
    /// The local process is not in the proposed member list.
    NotInMemberList {
        /// The proposed group.
        group: GroupId,
    },
    /// The member list is empty.
    EmptyMembership,
    /// §5.3 precondition: "Pi must not be a member of any gx such that
    /// Vx,i = gn" — a group with exactly this membership already exists.
    DuplicateMembership {
        /// The existing group with identical membership.
        existing: GroupId,
    },
    /// The supplied group configuration is invalid.
    Config(ConfigError),
}

impl fmt::Display for GroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupError::AlreadyExists { group } => {
                write!(f, "group {group} already exists at this process")
            }
            GroupError::NotInMemberList { group } => {
                write!(f, "local process is not in the member list of {group}")
            }
            GroupError::EmptyMembership => write!(f, "member list is empty"),
            GroupError::DuplicateMembership { existing } => write!(
                f,
                "an existing group ({existing}) already has exactly this membership"
            ),
            GroupError::Config(e) => write!(f, "invalid group configuration: {e}"),
        }
    }
}

impl Error for GroupError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GroupError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for GroupError {
    fn from(e: ConfigError) -> GroupError {
        GroupError::Config(e)
    }
}

/// An application-initiated send parked in the strict-FIFO deferred queue.
///
/// The queue is the engine's realisation of the paper's blocking rules: a
/// blocked head blocks everything behind it, because letting a later send
/// overtake would assign it a smaller logical-clock number and break the
/// causal delivery order.
#[derive(Debug, Clone)]
pub(crate) enum DeferredSend {
    /// An application multicast (§4.1 symmetric / §4.2 asymmetric).
    App { group: GroupId, payload: Bytes },
    /// The formation step-4 start-group announcement.
    StartGroup { group: GroupId },
    /// The voluntary-departure announcement.
    Depart { group: GroupId },
}

/// A Newtop protocol participant (one per process in the system).
///
/// # Examples
///
/// Three processes bootstrap a static group and exchange one multicast; see
/// `newtop_core::testkit` for the harness that moves the envelopes:
///
/// ```
/// use newtop_core::testkit::TestNet;
/// use newtop_types::{GroupConfig, GroupId, OrderMode, ProcessId};
///
/// let mut net = TestNet::new([1, 2, 3]);
/// net.bootstrap_group(GroupId(1), &[1, 2, 3], GroupConfig::new(OrderMode::Symmetric));
/// net.multicast(1, GroupId(1), b"hello");
/// net.run_to_quiescence();
/// // Liveness needs time-silence nulls from the quiet members:
/// net.advance_past_omega(GroupId(1));
/// assert_eq!(net.deliveries(2).len(), 1);
/// ```
#[derive(Debug)]
pub struct Process {
    id: ProcessId,
    cfg: ProcessConfig,
    pub(crate) lc: LogicalClock,
    now: Instant,
    pub(crate) groups: GroupMap,
    pub(crate) forming: BTreeMap<GroupId, Forming>,
    pub(crate) orphan_votes: BTreeMap<GroupId, Vec<(ProcessId, FormationDecision)>>,
    pub(crate) vote_policy: BTreeMap<GroupId, FormationDecision>,
    deferred: VecDeque<DeferredSend>,
    stats: ProcessStats,
    /// Reusable scratch for the group-id snapshots `tick`/`pump` need while
    /// holding `&mut self` — avoids a fresh `Vec` per timer tick and per
    /// pump round (taken while in use; a re-entrant taker just allocates).
    scratch_gids: Vec<GroupId>,
}

impl Process {
    /// Creates a process with no group memberships.
    #[must_use]
    pub fn new(id: ProcessId, cfg: ProcessConfig) -> Process {
        Process {
            id,
            cfg,
            lc: LogicalClock::new(),
            now: Instant::ZERO,
            groups: GroupMap::new(),
            forming: BTreeMap::new(),
            orphan_votes: BTreeMap::new(),
            vote_policy: BTreeMap::new(),
            deferred: VecDeque::new(),
            stats: ProcessStats::default(),
            scratch_gids: Vec::new(),
        }
    }

    /// This process's identifier.
    #[must_use]
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Current logical-clock value.
    #[must_use]
    pub fn lc(&self) -> Msn {
        self.lc.value()
    }

    /// The process configuration.
    #[must_use]
    pub fn config(&self) -> &ProcessConfig {
        &self.cfg
    }

    /// Protocol counters.
    #[must_use]
    pub fn stats(&self) -> ProcessStats {
        let mut s = self.stats;
        s.deferred_now = self.deferred.len() as u64;
        s
    }

    /// Installs membership of a statically configured group (the §4 setting:
    /// every listed member calls this with identical arguments before any
    /// traffic flows; the initial view `V0` is `members`).
    ///
    /// For dynamic creation at runtime use [`Process::initiate_group`]
    /// (§5.3) instead.
    ///
    /// # Errors
    ///
    /// [`GroupError`] if the group already exists, the configuration is
    /// invalid, the member list is empty or does not include this process.
    pub fn bootstrap_group(
        &mut self,
        now: Instant,
        group: GroupId,
        members: &BTreeSet<ProcessId>,
        config: GroupConfig,
    ) -> Result<(), GroupError> {
        self.observe_time(now);
        config.validate()?;
        if self.groups.contains_key(&group) || self.forming.contains_key(&group) {
            return Err(GroupError::AlreadyExists { group });
        }
        if members.is_empty() {
            return Err(GroupError::EmptyMembership);
        }
        if !members.contains(&self.id) {
            return Err(GroupError::NotInMemberList { group });
        }
        self.groups.insert(
            group,
            GroupState::new(
                group,
                self.id,
                config,
                members.clone(),
                now,
                GroupPhase::Active,
            ),
        );
        Ok(())
    }

    /// Requests an application multicast in `group` (delivered back to every
    /// functioning member, including the caller, in the group's delivery
    /// order).
    ///
    /// The send may be deferred by the §4.2/§4.3 blocking rules, the
    /// flow-control window, or an incomplete formation; deferred sends flow
    /// automatically once unblocked, in submission order.
    ///
    /// # Errors
    ///
    /// [`SendError::NotMember`] if this process is not a member (or the
    /// group is unknown); [`SendError::Departed`] after [`Process::depart`];
    /// [`SendError::PayloadTooLarge`] for a payload longer than
    /// [`newtop_types::wire::MAX_PAYLOAD_LEN`].
    pub fn multicast(
        &mut self,
        now: Instant,
        group: GroupId,
        payload: Bytes,
    ) -> Result<Vec<Action>, SendError> {
        self.observe_time(now);
        if let Some(gs) = self.groups.get(&group) {
            if gs.departing {
                return Err(SendError::Departed { group });
            }
        } else if !self.forming.contains_key(&group) {
            return Err(SendError::NotMember { group });
        }
        if payload.len() as u64 > newtop_types::wire::MAX_PAYLOAD_LEN {
            return Err(SendError::PayloadTooLarge { group });
        }
        self.stats.app_sends += 1;
        self.deferred
            .push_back(DeferredSend::App { group, payload });
        let mut out = Vec::new();
        let _ = self.drain_deferred(&mut out);
        self.pump(&mut out);
        if !self.deferred.is_empty() {
            // The freshly submitted send (and anything before it) is parked.
            self.stats.deferred_total += 1;
        }
        Ok(out)
    }

    /// Announces voluntary departure from `group`. The departure message is
    /// the member's last in the group; the remaining members agree on it as
    /// the cut (§3: "once Pi leaves gx, it maintains no membership view for
    /// gx") and install a view without this process.
    ///
    /// # Errors
    ///
    /// [`SendError::NotMember`] if not a member; [`SendError::Departed`] if
    /// already departing.
    pub fn depart(&mut self, now: Instant, group: GroupId) -> Result<Vec<Action>, SendError> {
        self.observe_time(now);
        let mut out = Vec::new();
        if let Some(f) = self.forming.remove(&group) {
            // Cancel an in-flight formation by vetoing it.
            self.veto_forming(&f, group, &mut out);
            return Ok(out);
        }
        let Some(gs) = self.groups.get_mut(&group) else {
            return Err(SendError::NotMember { group });
        };
        if gs.departing {
            return Err(SendError::Departed { group });
        }
        gs.departing = true;
        self.deferred.push_back(DeferredSend::Depart { group });
        let _ = self.drain_deferred(&mut out);
        self.pump(&mut out);
        Ok(out)
    }

    /// Handles one envelope from the reliable FIFO transport.
    pub fn handle(&mut self, now: Instant, from: ProcessId, env: Envelope) -> Vec<Action> {
        let mut out = Vec::new();
        self.handle_into(now, from, env, &mut out);
        out
    }

    /// [`Process::handle`] appending into a caller-owned action buffer.
    ///
    /// Semantics are identical to calling `handle` per envelope — the
    /// delivery pump and deferred-send drain run to their fixpoint every
    /// call — but a host decoding a batched wire frame can reuse one
    /// `Vec` across all of the frame's envelopes instead of allocating
    /// (and then concatenating) one per message.
    pub fn handle_into(
        &mut self,
        now: Instant,
        from: ProcessId,
        env: Envelope,
        out: &mut Vec<Action>,
    ) {
        self.observe_time(now);
        match env {
            Envelope::Control(c) => self.handle_control(from, c, out),
            Envelope::Group(m) => self.receive_group_message(from, m, out),
        }
        self.pump(out);
        if self.drain_deferred(out) {
            // Deferred sends may have unblocked deliveries of our own
            // messages; otherwise the fixpoint above still stands.
            self.pump(out);
        }
    }

    /// Advances local timers: time-silence null emission (§4.1), failure
    /// suspicion (§5.2 `S_i`), and formation deadlines (§5.3 step 3).
    pub fn tick(&mut self, now: Instant) -> Vec<Action> {
        let mut out = Vec::new();
        self.tick_into(now, &mut out);
        out
    }

    /// [`Process::tick`] appending into a caller-owned action buffer.
    pub fn tick_into(&mut self, now: Instant, out: &mut Vec<Action>) {
        self.observe_time(now);
        self.formation_tick(out);
        // Covering groups tick first: a null sent there restarts the ω
        // timer of every group it covers, which then stays silent.
        let mut gids = std::mem::take(&mut self.scratch_gids);
        gids.clear();
        gids.extend_from_slice(self.groups.tick_order());
        for gid in &gids {
            self.group_tick(*gid, out);
        }
        self.scratch_gids = gids;
        self.pump(out);
        if self.drain_deferred(out) {
            self.pump(out);
        }
    }

    /// The earliest instant at which [`Process::tick`] has work to do, or
    /// `None` when no timers are pending.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Instant> {
        let mut next: Option<Instant> = None;
        let mut fold = |t: Instant| {
            next = Some(match next {
                None => t,
                Some(n) => n.min(t),
            });
        };
        for f in self.forming.values() {
            fold(f.deadline);
        }
        for gs in self.groups.values() {
            if let Some(d) = gs.timer_deadline() {
                fold(d);
            }
        }
        next
    }

    // ------------------------------------------------------------------
    // Introspection (tests, experiments, monitoring)
    // ------------------------------------------------------------------

    /// The current view of `group`, if this process is a member.
    #[must_use]
    pub fn view(&self, group: GroupId) -> Option<&View> {
        self.groups.get(&group).map(|g| &g.view)
    }

    /// The §6 signed view of `group`.
    #[must_use]
    pub fn signed_view(&self, group: GroupId) -> Option<SignedView> {
        self.groups.get(&group).map(GroupState::signed_view)
    }

    /// Whether this process currently holds membership state for `group`.
    #[must_use]
    pub fn is_member(&self, group: GroupId) -> bool {
        self.groups.contains_key(&group)
    }

    /// Whether `group` has completed formation (application sends permitted).
    #[must_use]
    pub fn is_active(&self, group: GroupId) -> bool {
        self.groups
            .get(&group)
            .is_some_and(|g| g.phase == GroupPhase::Active)
    }

    /// Identifiers of all groups with local state.
    #[must_use]
    pub fn group_ids(&self) -> Vec<GroupId> {
        self.groups.keys().copied().collect()
    }

    /// The group-local deliverability bound `D_{x,i}`.
    #[must_use]
    pub fn d_of(&self, group: GroupId) -> Option<Msn> {
        self.groups.get(&group).map(GroupState::d_x)
    }

    /// The global deliverability bound `D_i = min over groups` (*safe1'*).
    /// Atomic-mode groups do not constrain it (they bypass ordering).
    #[must_use]
    pub fn di(&self) -> Msn {
        self.groups
            .values()
            .filter(|g| g.cfg.delivery == DeliveryMode::Total)
            .map(GroupState::d_x)
            .min()
            .unwrap_or(Msn::INFINITY)
    }

    /// Number of received-but-undelivered messages buffered for `group`.
    #[must_use]
    pub fn buffered(&self, group: GroupId) -> usize {
        self.groups.get(&group).map_or(0, |g| g.buffer.len())
    }

    /// Number of unstable messages retained for recovery in `group` (the
    /// buffer-occupancy metric of experiment E9). Includes nulls and
    /// membership messages — see [`Process::retained_app`] for application
    /// traffic only.
    #[must_use]
    pub fn retained(&self, group: GroupId) -> usize {
        self.groups.get(&group).map_or(0, |g| g.retention.len())
    }

    /// Number of unstable *application* messages retained for recovery in
    /// `group` (steady-state this reaches zero; the most recent nulls always
    /// linger in [`Process::retained`]).
    #[must_use]
    pub fn retained_app(&self, group: GroupId) -> usize {
        self.groups.get(&group).map_or(0, |g| g.retention.app_len())
    }

    /// Outstanding (unsequenced) unicast requests in an asymmetric `group`.
    #[must_use]
    pub fn outstanding(&self, group: GroupId) -> usize {
        self.groups.get(&group).map_or(0, |g| g.outstanding.len())
    }

    /// Application sends currently parked in the deferred queue.
    #[must_use]
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    /// Live suspicions held for `group`.
    #[must_use]
    pub fn suspicions_of(&self, group: GroupId) -> Vec<Suspicion> {
        self.groups.get(&group).map_or_else(Vec::new, |g| {
            g.suspicions
                .iter()
                .map(|(p, ln)| Suspicion {
                    suspect: *p,
                    ln: *ln,
                })
                .collect()
        })
    }

    /// `member`'s current suspicion level in `group`, in permille of its
    /// silence timeout (1000 = at the exclusion threshold) — under
    /// [`newtop_types::SuspicionMode::Accrual`] the timeout is the
    /// per-member adaptive one. `None` for an unknown group or member.
    #[must_use]
    pub fn suspicion_level(&self, group: GroupId, member: ProcessId, now: Instant) -> Option<u64> {
        self.groups
            .get(&group)?
            .suspicion_level_permille(member, now)
    }

    /// Presets the vote this process will cast if invited to form `group`
    /// (§5.3 step 2). The default is yes.
    pub fn set_vote_policy(&mut self, group: GroupId, decision: FormationDecision) {
        self.vote_policy.insert(group, decision);
    }

    /// Checks the engine's internal coherence invariants — every derived
    /// cache against a from-scratch recomputation, plus the CA1 bound that
    /// the local receive-vector entry never exceeds the logical clock.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant. A violation means an
    /// incremental cache-maintenance path diverged from its definition:
    /// protocol state is corrupt even if no externally visible ordering
    /// property has (yet) been broken.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (g, gs) in &self.groups {
            if !gs.rv.tree_coherent() {
                return Err(format!(
                    "{}: group {g}: RV cached-min tree incoherent",
                    self.id
                ));
            }
            if !gs.sv.tree_coherent() {
                return Err(format!(
                    "{}: group {g}: SV cached-min tree incoherent",
                    self.id
                ));
            }
            if !gs.buffer.head_cache_coherent() {
                return Err(format!(
                    "{}: group {g}: delivery-buffer head cache incoherent",
                    self.id
                ));
            }
            if !gs.timer_cache_coherent() {
                return Err(format!(
                    "{}: group {g}: memoised timer deadline diverges from recomputed \
                     \u{3c9}/\u{3a9} argmin",
                    self.id
                ));
            }
            let own = gs.rv.get(self.id);
            if !own.is_infinite() && own > self.lc.value() {
                return Err(format!(
                    "{}: group {g}: own RV entry {own:?} exceeds logical clock {:?}",
                    self.id,
                    self.lc.value()
                ));
            }
        }
        Ok(())
    }

    /// Debug-build invariant audit: panics (via `debug_assert!`) if
    /// [`Process::check_invariants`] fails. The model checker and the chaos
    /// fleet call this after every step; release builds compile it away.
    #[inline]
    pub fn audit_invariants(&self) {
        #[cfg(debug_assertions)]
        if let Err(e) = self.check_invariants() {
            debug_assert!(false, "invariant audit failed: {e}");
        }
    }

    // ------------------------------------------------------------------
    // Internal plumbing
    // ------------------------------------------------------------------

    pub(crate) fn observe_time(&mut self, now: Instant) {
        if now > self.now {
            self.now = now;
        }
    }

    pub(crate) fn now(&self) -> Instant {
        self.now
    }

    /// Queues an item *ahead* of everything already deferred. Used for the
    /// start-group announcement: application sends for the forming group may
    /// already be queued, and they cannot flow until the announcement does —
    /// a strict-FIFO insertion behind them would deadlock. Overtaking is
    /// sound here because a start-group message is never delivered to the
    /// application, so its number cannot perturb app-visible causal order.
    pub(crate) fn push_deferred_front(&mut self, item: DeferredSend) {
        self.deferred.push_front(item);
    }

    pub(crate) fn stats_mut(&mut self) -> &mut ProcessStats {
        &mut self.stats
    }

    /// CA1-number and emit a multicast in `group` to every other view
    /// member, applying all self-receipt effects. Returns the number used.
    ///
    /// The message is materialised **once**: every per-destination envelope
    /// (and the sender's own retention/delivery-buffer handles) shares the
    /// same [`Arc<Message>`], so fan-out cost is a refcount bump per
    /// destination regardless of payload size.
    pub(crate) fn send_numbered(
        &mut self,
        group: GroupId,
        mk_body: impl FnOnce(Msn) -> MessageBody,
        out: &mut Vec<Action>,
    ) -> Msn {
        let c = self.lc.advance_for_send();
        let me = self.id;
        let now = self.now;
        let Some(gs) = self.groups.get(&group) else {
            return c;
        };
        // m.ldn = D_{x,i}, capped at the clock (the paper's D <= LC): an
        // unconstrained D (sole survivor) reports the clock itself. The
        // message is also the ω null of every covered group, where its
        // ldn is a stability report too, so it is capped by their D.
        let ldn = gs
            .covers
            .iter()
            .filter_map(|g| self.groups.get(g))
            .fold(gs.d_x().min(c), |ldn, cg| ldn.min(cg.d_x()));
        self.credit_covered_groups(group, c, ldn);
        let Some(gs) = self.groups.get_mut(&group) else {
            return c;
        };
        let body = mk_body(c);
        let m = Arc::new(Message {
            group,
            sender: me,
            c,
            ldn,
            body,
        });
        gs.rv.advance(me, c);
        gs.sv.advance(me, ldn);
        gs.last_send = now;
        gs.touch_timers();
        if m.is_retained() {
            gs.retention.store(&m);
        }
        if gs.cfg.mode == OrderMode::Asymmetric && gs.is_sequencer() {
            // The sequencer's own stream position advances with *every* of
            // its numbered multicasts. Receivers count any message from the
            // sequencer — including nulls — so the sequencer must too, or
            // its own D would lag its members' and its deliveries wedge.
            gs.d_asym = gs.d_asym.max(c);
        }
        for dst in gs.view.iter() {
            if dst != me {
                out.push(Action::Send {
                    to: dst,
                    envelope: Envelope::Group(Arc::clone(&m)),
                });
            }
        }
        // Self-receipt of deliverable-class bodies: "Pi delivers its own
        // messages also by executing the protocol in operation" (§3).
        match &m.body {
            MessageBody::App(_) | MessageBody::Relay { .. } | MessageBody::ViewCut { .. } => {
                self.deliver_or_buffer(group, m, out);
            }
            _ => {}
        }
        c
    }

    /// The sender side of the covering rule: multicast `c` (with `ldn`) in
    /// `group` counts as a null send in every group `group` covers — the
    /// own receive and seen entries advance, the ω timer restarts, and a
    /// covered asymmetric group's sequencer advances its own stream
    /// position, exactly as [`Process::send_numbered`] does for a null.
    ///
    /// Only an active `group` stands in: every member has then sent its
    /// start-group message, so every member holds the group and applies
    /// the implicit nulls. Before that a member may still be voting, and a
    /// formation that fails there would leave the covered groups silent.
    fn credit_covered_groups(&mut self, group: GroupId, c: Msn, ldn: Msn) {
        if self
            .groups
            .get(&group)
            .is_none_or(|gs| gs.phase != GroupPhase::Active)
        {
            return;
        }
        let me = self.id;
        let now = self.now;
        let mut i = 0;
        while let Some(g) = self.groups.get(&group).and_then(|gs| gs.covers.get(i)) {
            let g = *g;
            i += 1;
            let Some(cg) = self.groups.get_mut(&g) else {
                continue;
            };
            cg.rv.advance(me, c);
            cg.sv.advance(me, ldn);
            cg.last_send = now;
            cg.touch_timers();
            if cg.cfg.mode == OrderMode::Asymmetric && cg.is_sequencer() {
                cg.d_asym = cg.d_asym.max(c);
            }
            self.stats.nulls_covered += 1;
        }
    }

    /// The receive side of the covering rule: multicast `c` (with `ldn`)
    /// from `from` in `group`, taken straight off the FIFO link from
    /// `from`, is the ω null of every group `group` covers in which `from`
    /// is unsuspected and not failed. `from` numbers all its sends from
    /// one clock and the link is FIFO across groups, so every message
    /// `from` numbered below `c` in a covered group has already arrived
    /// and none can still come: a null's receive effects apply.
    fn apply_implicit_nulls(
        &mut self,
        group: GroupId,
        from: ProcessId,
        c: Msn,
        ldn: Msn,
        out: &mut Vec<Action>,
    ) {
        let now = self.now;
        let mut i = 0;
        while let Some(g) = self.groups.get(&group).and_then(|gs| gs.covers.get(i)) {
            let g = *g;
            i += 1;
            let Some(cg) = self.groups.get_mut(&g) else {
                continue;
            };
            if !cg.view.contains(from) || cg.suspicions.contains_key(&from) || cg.is_failed(from) {
                continue;
            }
            cg.rv.advance(from, c);
            cg.sv.advance(from, ldn);
            cg.on_stability_advance();
            if cg.cfg.mode == OrderMode::Asymmetric && cg.sequencer() == Some(from) {
                cg.d_asym = cg.d_asym.max(c);
            }
            cg.note_heard(from, now);
            self.refute_scan(g, from, out);
        }
    }

    /// Routes a deliverable-class message into the ordered buffer (total
    /// order) or straight out (atomic mode). The buffer shares the caller's
    /// reference; nothing here copies payload bytes.
    pub(crate) fn deliver_or_buffer(
        &mut self,
        group: GroupId,
        m: Arc<Message>,
        out: &mut Vec<Action>,
    ) {
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        match gs.cfg.delivery {
            DeliveryMode::Total => gs.buffer.insert(m),
            DeliveryMode::Atomic => match &m.body {
                MessageBody::App(_) | MessageBody::Relay { .. } => {
                    let d = Delivery {
                        group,
                        origin: m.origin(),
                        c: m.c,
                        view_seq: gs.view.seq(),
                        payload: match &m.body {
                            MessageBody::App(p) => p.clone(),
                            MessageBody::Relay { payload, .. } => payload.clone(),
                            _ => unreachable!(),
                        },
                    };
                    self.stats.deliveries += 1;
                    out.push(Action::Deliver(d));
                }
                MessageBody::ViewCut { detection } => {
                    let (from, detection) = (m.sender, detection.clone());
                    self.install_at_cut(group, from, detection, out);
                }
                _ => {}
            },
        }
    }

    /// The shared receipt path for a message from an unsuspected, in-view
    /// sender (also used when draining pending messages after a refutation).
    pub(crate) fn integrate_live_message(
        &mut self,
        group: GroupId,
        from: ProcessId,
        m: Arc<Message>,
        out: &mut Vec<Action>,
    ) {
        let now = self.now;
        let me = self.id;
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        self.stats.received += 1;
        self.lc.observe(m.c);
        if from != me {
            gs.note_heard(from, now);
        }
        let is_request = matches!(m.body, MessageBody::SeqRequest { .. });
        // Per sender and group, message numbers arrive strictly increasing
        // over the FIFO link — except when a refutation piggyback has
        // already integrated a copy that overtook the original on a slow
        // (or partition-healed) link. Such an overtaken copy must not be
        // buffered for delivery a second time; its membership semantics
        // (which the recovery path deliberately skips for third parties)
        // are still processed below.
        #[cfg(not(feature = "break-rv-dedup"))]
        let already_integrated = !is_request && {
            let have = gs.rv.get(from);
            !have.is_infinite() && m.c <= have
        };
        // Test-only fault injection for the model checker's self-check: with
        // the `break-rv-dedup` feature the watermark guard is disabled,
        // reintroducing the PR 3 duplicate-delivery bug (a recovery copy
        // integrated from a refute piggyback plus the late original).
        #[cfg(feature = "break-rv-dedup")]
        let already_integrated = false;
        if !is_request {
            // Sequencer unicast requests are point-to-point: they advance the
            // logical clock but not the receive vector, so suspicion `ln`
            // values stay comparable across members (only multicasts count).
            gs.rv.advance(from, m.c);
            gs.sv.advance(from, m.ldn);
            gs.on_stability_advance();
            if gs.cfg.mode == OrderMode::Asymmetric && gs.sequencer() == Some(from) {
                gs.d_asym = gs.d_asym.max(m.c);
            }
        }
        if m.is_retained() {
            gs.retention.store(&m);
        }
        // Dispatch by reference: the hot arms (App, Null) move the shared
        // handle on without touching the body; only the cold membership
        // arms copy the small structured fields they consume.
        match &m.body {
            MessageBody::App(_) => {
                if !already_integrated {
                    self.deliver_or_buffer(group, m, out);
                }
            }
            MessageBody::Null => {}
            MessageBody::SeqRequest { origin_c, payload } => {
                let (origin_c, payload) = (*origin_c, payload.clone());
                self.on_seq_request(group, from, origin_c, payload, out);
            }
            MessageBody::Relay {
                origin, origin_c, ..
            } => {
                let (origin, origin_c) = (*origin, *origin_c);
                if origin == me {
                    self.clear_outstanding(group, origin_c, m.c);
                }
                if !already_integrated {
                    self.deliver_or_buffer(group, m, out);
                }
            }
            MessageBody::Suspect(s) => {
                let s = *s;
                self.on_suspect(group, from, s, out);
            }
            MessageBody::Refute {
                suspicion,
                upto,
                recovered,
            } => {
                let (suspicion, upto, recovered) = (*suspicion, *upto, recovered.clone());
                self.on_refute(group, from, suspicion, upto, recovered, out);
            }
            MessageBody::Confirmed { detection } => {
                let detection = detection.clone();
                self.on_confirmed(group, from, detection, out);
            }
            MessageBody::StartGroup => self.on_start_group(group, from, m.c, out),
            MessageBody::Depart => self.on_depart_msg(group, from, m.c, out),
            MessageBody::ViewCut { .. } => {
                if !already_integrated {
                    self.deliver_or_buffer(group, m, out);
                }
            }
        }
        // This receipt may refute recorded suspicions about `from`
        // (condition (iii): we now hold a message numbered above their ln).
        self.refute_scan(group, from, out);
    }

    pub(crate) fn receive_group_message(
        &mut self,
        from: ProcessId,
        m: Arc<Message>,
        out: &mut Vec<Action>,
    ) {
        let group = m.group;
        let Some(gs) = self.groups.get_mut(&group) else {
            if let Some(f) = self.forming.get_mut(&group) {
                f.early.push((from, m));
            }
            return;
        };
        if !gs.view.contains(from) || gs.is_failed(from) {
            // "Pi discards any messages received from Pk and GVk, if either
            // Pk ∈ failed or Pk ∉ Vi" (§5.2).
            return;
        }
        if gs.suspicions.contains_key(&from) {
            // Held pending the agreement outcome (§5.2): integrated if the
            // suspicion is refuted, discarded if it is confirmed.
            gs.pending_from.entry(from).or_default().push(m);
            return;
        }
        // Sequencer requests are unicasts that advance no receive vector,
        // so they stand in for no null.
        let implicit = !gs.covers.is_empty()
            && from != self.id
            && !matches!(m.body, MessageBody::SeqRequest { .. });
        let (c, ldn) = (m.c, m.ldn);
        self.integrate_live_message(group, from, m, out);
        if implicit {
            self.apply_implicit_nulls(group, from, c, ldn, out);
        }
    }

    /// Removes a now-sequenced request from the outstanding queue and marks
    /// its relayed number as our own unstable message.
    fn clear_outstanding(&mut self, group: GroupId, origin_c: Msn, relay_c: Msn) {
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        if let Some(pos) = gs.outstanding.iter().position(|(c, _)| *c == origin_c) {
            gs.outstanding.remove(pos);
            gs.own_unstable.insert(relay_c);
        }
    }

    fn on_seq_request(
        &mut self,
        group: GroupId,
        from: ProcessId,
        origin_c: Msn,
        payload: Bytes,
        out: &mut Vec<Action>,
    ) {
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        if !gs.is_sequencer() {
            // Either the sender held a stale view, or — after a sequencer
            // crash — its view install (and fail-over resubmission) raced
            // ahead of ours. The sequencer rank is monotone (min of a
            // shrinking member set), so if the sender's view names us we
            // will become the sequencer at our own install: park the
            // request and relay it then. Dropping it instead would lose
            // the message forever, as nothing triggers a second
            // resubmission at the sender.
            gs.parked_requests
                .retain(|(o, oc, _)| !(*o == from && *oc == origin_c));
            gs.parked_requests.push_back((from, origin_c, payload));
            return;
        }
        self.send_numbered(
            group,
            |_| MessageBody::Relay {
                origin: from,
                origin_c,
                payload,
            },
            out,
        );
    }

    /// Relays requests that were parked while this process was not yet the
    /// sequencer (see [`Process::on_seq_request`]); called after every view
    /// installation.
    pub(crate) fn relay_parked_requests(&mut self, group: GroupId, out: &mut Vec<Action>) {
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        if gs.cfg.mode != OrderMode::Asymmetric
            || !gs.is_sequencer()
            || gs.parked_requests.is_empty()
        {
            return;
        }
        let parked: Vec<(ProcessId, Msn, Bytes)> = gs.parked_requests.drain(..).collect();
        for (origin, origin_c, payload) in parked {
            self.send_numbered(
                group,
                |_| MessageBody::Relay {
                    origin,
                    origin_c,
                    payload,
                },
                out,
            );
        }
    }

    // ------------------------------------------------------------------
    // The delivery pump: installs and ordered deliveries to a fixpoint.
    // ------------------------------------------------------------------

    /// Runs view installations and ordered deliveries until neither can make
    /// progress. Delivery obeys *safe1'* (`c <= D_i`) and *safe2*
    /// (non-decreasing `c`, ties broken by `(group, sender)`), and the
    /// step-(viii) barrier: a pending install with bound `N` precedes any
    /// delivery with `c > N` in its group.
    pub(crate) fn pump(&mut self, out: &mut Vec<Action>) {
        let mut gids = std::mem::take(&mut self.scratch_gids);
        loop {
            let mut progress = false;
            gids.clear();
            gids.extend(self.groups.keys().copied());
            for gid in &gids {
                while self.try_install_head(*gid, out) {
                    progress = true;
                }
            }
            let di = self.di();
            let mut best: Option<(Msn, GroupId, ProcessId)> = None;
            for (gid, gs) in &self.groups {
                if gs.cfg.delivery == DeliveryMode::Atomic {
                    continue;
                }
                let Some((c, s)) = gs.buffer.first_key() else {
                    continue;
                };
                if c > di {
                    continue;
                }
                if gs.head_barrier().is_some_and(|bound| c > bound) {
                    // Barrier: the view must install before this message
                    // delivers; the install attempt above was not ready.
                    continue;
                }
                let key = (c, *gid, s);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            if let Some((c, gid, s)) = best {
                self.deliver_one(gid, (c, s), out);
                progress = true;
            }
            if !progress {
                break;
            }
        }
        self.scratch_gids = gids;
    }

    fn deliver_one(&mut self, group: GroupId, key: (Msn, ProcessId), out: &mut Vec<Action>) {
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        let Some(m) = gs.buffer.take(key) else {
            return;
        };
        let view_seq = gs.view.seq();
        match &m.body {
            MessageBody::App(payload) => {
                self.stats.deliveries += 1;
                out.push(Action::Deliver(Delivery {
                    group,
                    origin: m.sender,
                    c: m.c,
                    view_seq,
                    payload: payload.clone(),
                }));
            }
            MessageBody::Relay {
                origin, payload, ..
            } => {
                self.stats.deliveries += 1;
                out.push(Action::Deliver(Delivery {
                    group,
                    origin: *origin,
                    c: m.c,
                    view_seq,
                    payload: payload.clone(),
                }));
            }
            MessageBody::ViewCut { detection } => {
                // The sequencer's in-stream cut: install here, at this
                // position of the delivery stream (identical at every
                // member).
                let (from, detection) = (m.sender, detection.clone());
                self.install_at_cut(group, from, detection, out);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Deferred sends (blocking rules, flow control, formation gating)
    // ------------------------------------------------------------------

    /// Whether any group other than `g` has outstanding unsequenced
    /// unicasts — the §4.3 mixed-mode blocking-rule predicate.
    fn blocked_by_other_unicasts(&self, g: GroupId) -> bool {
        self.groups
            .iter()
            .any(|(gid, gs)| *gid != g && !gs.outstanding.is_empty())
    }

    fn any_outstanding(&self) -> bool {
        self.groups.values().any(|gs| !gs.outstanding.is_empty())
    }

    /// Returns whether at least one deferred entry was consumed — callers
    /// that just pumped to a fixpoint can skip the follow-up pump when
    /// nothing flowed (the fixpoint still stands).
    pub(crate) fn drain_deferred(&mut self, out: &mut Vec<Action>) -> bool {
        #[derive(Clone, Copy, PartialEq)]
        enum Kind {
            App,
            Start,
            Depart,
        }
        let mut progressed = false;
        loop {
            let (kind, g) = match self.deferred.front() {
                None => return progressed,
                Some(DeferredSend::App { group, .. }) => (Kind::App, *group),
                Some(DeferredSend::StartGroup { group }) => (Kind::Start, *group),
                Some(DeferredSend::Depart { group }) => (Kind::Depart, *group),
            };
            match kind {
                Kind::App => {
                    let Some(gs) = self.groups.get(&g) else {
                        if self.forming.contains_key(&g) {
                            return progressed; // still forming: wait
                        }
                        self.deferred.pop_front(); // group gone: drop send
                        progressed = true;
                        continue;
                    };
                    let eligible = matches!(gs.phase, GroupPhase::Active)
                        && gs.flow_has_room()
                        && !self.blocked_by_other_unicasts(g);
                    if !eligible {
                        return progressed;
                    }
                    let Some(DeferredSend::App { payload, .. }) = self.deferred.pop_front() else {
                        unreachable!("head re-checked under exclusive access");
                    };
                    progressed = true;
                    self.execute_app_send(g, payload, out);
                }
                Kind::Start => {
                    if !self.groups.contains_key(&g) {
                        self.deferred.pop_front();
                        progressed = true;
                        continue;
                    }
                    if self.blocked_by_other_unicasts(g) {
                        return progressed;
                    }
                    self.deferred.pop_front();
                    progressed = true;
                    self.send_numbered(g, |_| MessageBody::StartGroup, out);
                    let me = self.id;
                    if let Some(gs) = self.groups.get_mut(&g) {
                        if let GroupPhase::AwaitStart { starters, .. } = &mut gs.phase {
                            starters.insert(me);
                        }
                    }
                    self.check_start_complete(g, out);
                }
                Kind::Depart => {
                    if !self.groups.contains_key(&g) {
                        self.deferred.pop_front();
                        progressed = true;
                        continue;
                    }
                    if self.any_outstanding() {
                        return progressed;
                    }
                    self.deferred.pop_front();
                    progressed = true;
                    self.send_numbered(g, |_| MessageBody::Depart, out);
                    self.groups.remove(&g);
                    out.push(Action::Event(ProtocolEvent::DepartureCompleted {
                        group: g,
                    }));
                }
            }
        }
    }

    fn execute_app_send(&mut self, group: GroupId, payload: Bytes, out: &mut Vec<Action>) {
        let Some(gs) = self.groups.get(&group) else {
            return;
        };
        match gs.cfg.mode {
            OrderMode::Symmetric => {
                let c = self.send_numbered(group, |_| MessageBody::App(payload), out);
                if let Some(gs) = self.groups.get_mut(&group) {
                    gs.own_unstable.insert(c);
                }
            }
            OrderMode::Asymmetric => {
                if gs.is_sequencer() {
                    let me = self.id;
                    let c = self.send_numbered(
                        group,
                        |c| MessageBody::Relay {
                            origin: me,
                            origin_c: c,
                            payload,
                        },
                        out,
                    );
                    if let Some(gs) = self.groups.get_mut(&group) {
                        gs.own_unstable.insert(c);
                    }
                } else {
                    let sequencer = gs.sequencer().expect("nonempty view has a sequencer");
                    let c = self.lc.advance_for_send();
                    let Some(gs) = self.groups.get_mut(&group) else {
                        return;
                    };
                    let ldn = gs.d_x().min(c);
                    let m = Message {
                        group,
                        sender: self.id,
                        c,
                        ldn,
                        body: MessageBody::SeqRequest {
                            origin_c: c,
                            payload: payload.clone(),
                        },
                    };
                    gs.outstanding.push_back((c, payload));
                    out.push(Action::Send {
                        to: sequencer,
                        envelope: Envelope::Group(Arc::new(m)),
                    });
                }
            }
        }
    }

    /// Resubmits outstanding unicasts to the (possibly new) sequencer after
    /// a view installation in an asymmetric group — our completion of the
    /// fail-over the paper defers to its technical-report version.
    pub(crate) fn resubmit_outstanding(&mut self, group: GroupId, out: &mut Vec<Action>) {
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        if gs.cfg.mode != OrderMode::Asymmetric || gs.outstanding.is_empty() {
            return;
        }
        let pending: Vec<Bytes> = gs.outstanding.drain(..).map(|(_, p)| p).collect();
        let n = pending.len();
        for payload in pending {
            self.execute_app_send(group, payload, out);
        }
        let Some(gs) = self.groups.get(&group) else {
            return;
        };
        if let Some(new) = gs.sequencer() {
            out.push(Action::Event(ProtocolEvent::SequencerChanged {
                group,
                new,
                resubmitted: n,
            }));
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    fn group_tick(&mut self, group: GroupId, out: &mut Vec<Action>) {
        let now = self.now;
        let me = self.id;
        let Some(gs) = self.groups.get(&group) else {
            return;
        };
        // Time-silence (§4.1): stay lively with a null message if nothing
        // was sent in the last ω. Required of every member in every group
        // when fault tolerance is on (§5) — including one whose announced
        // departure is still deferred behind outstanding messages: it is a
        // member until the `Depart` message goes out, and going silent
        // earlier gets it falsely suspected and excluded (`departing` only
        // blocks further *application* sends).
        let needs_null = gs.view.len() > 1 && now.saturating_since(gs.last_send) >= gs.cfg.omega;
        if needs_null {
            self.send_numbered(group, |_| MessageBody::Null, out);
            self.stats.nulls_sent += 1;
        }
        // Failure suspector S_i (§5.2): suspect members whose silence
        // exceeds their suspicion timeout — the fixed Ω, or the accrual
        // detector's adaptive timeout per member.
        let Some(gs) = self.groups.get(&group) else {
            return;
        };
        let silent: Vec<ProcessId> = gs
            .last_heard
            .iter()
            .filter(|(j, heard)| {
                **j != me
                    && gs.view.contains(**j)
                    && !gs.suspicions.contains_key(*j)
                    && !gs.is_failed(**j)
                    && now.saturating_since(**heard) >= gs.suspicion_span(**j)
            })
            .map(|(j, _)| *j)
            .collect();
        for j in silent {
            self.suspector_notify(group, j, out);
        }
    }
}

impl newtop_types::digest::StateDigest for DeferredSend {
    fn digest_into(&self, h: &mut newtop_types::digest::DigestHasher) {
        match self {
            DeferredSend::App { group, payload } => {
                h.write_u8(0);
                group.digest_into(h);
                payload.digest_into(h);
            }
            DeferredSend::StartGroup { group } => {
                h.write_u8(1);
                group.digest_into(h);
            }
            DeferredSend::Depart { group } => {
                h.write_u8(2);
                group.digest_into(h);
            }
        }
    }
}

impl newtop_types::digest::StateDigest for Process {
    /// Folds the complete protocol state: identity, configuration, logical
    /// clock, local time, every group state, in-flight formations, orphan
    /// votes, vote policies and the deferred-send queue. Excluded:
    /// statistics counters and the `scratch_gids` reuse buffer — neither
    /// influences future protocol behaviour.
    fn digest_into(&self, h: &mut newtop_types::digest::DigestHasher) {
        self.id.digest_into(h);
        self.cfg.digest_into(h);
        self.lc.digest_into(h);
        self.now.digest_into(h);
        h.write_u64(self.groups.keys().count() as u64);
        for (g, gs) in &self.groups {
            g.digest_into(h);
            gs.digest_into(h);
        }
        h.write_u64(self.forming.len() as u64);
        for (g, f) in &self.forming {
            g.digest_into(h);
            f.digest_into(h);
        }
        h.write_u64(self.orphan_votes.len() as u64);
        for (g, votes) in &self.orphan_votes {
            g.digest_into(h);
            votes.digest_into(h);
        }
        h.write_u64(self.vote_policy.len() as u64);
        for (g, d) in &self.vote_policy {
            g.digest_into(h);
            d.digest_into(h);
        }
        h.write_u64(self.deferred.len() as u64);
        for d in &self.deferred {
            d.digest_into(h);
        }
    }
}

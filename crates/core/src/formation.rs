//! Dynamic group formation (§5.3): the two-phase invite/vote exchange
//! (steps 1–3) and the start-group number agreement (steps 4–5).
//!
//! Formation is how processes "join": Newtop has no join operation — former
//! co-members create a *new* group and leave the old ones, which "is
//! equivalent to the former processes of a group rejoining the same group
//! with new identifiers" (§3).

use crate::action::{Action, FormationFailure};
use crate::group::{GroupPhase, GroupState};
use crate::process::{DeferredSend, Process};
use newtop_types::{
    ControlMessage, Envelope, FormationDecision, GroupConfig, GroupId, Instant, Message, Msn,
    ProcessId,
};
use std::collections::{BTreeMap, BTreeSet};

/// Upper bound on buffered votes for groups whose invitation has not yet
/// arrived (votes and invitations race on independent links).
const ORPHAN_VOTE_CAP: usize = 64;

/// State of one in-flight formation attempt (before the group exists).
#[derive(Debug, Clone, Hash)]
pub(crate) struct Forming {
    pub initiator: ProcessId,
    pub members: BTreeSet<ProcessId>,
    pub config: GroupConfig,
    pub votes: BTreeMap<ProcessId, FormationDecision>,
    pub my_vote_cast: bool,
    /// Initiator: the step-3 vote-collection deadline. Others: a generous
    /// abort deadline in case the initiator vanished.
    pub deadline: Instant,
    /// Group messages that arrived before local activation (other members
    /// may activate first); replayed once the group state exists.
    pub early: Vec<(ProcessId, std::sync::Arc<Message>)>,
}

impl Process {
    /// Step 1: initiates the formation of `group` with the given intended
    /// membership, acting as the two-phase coordinator.
    ///
    /// Every intended member must be reachable and willing (a single veto
    /// aborts, step 3). On success each member activates the group and
    /// application sends flow once start-numbers are agreed (step 5), which
    /// the host observes via [`Action::GroupActive`].
    ///
    /// # Errors
    ///
    /// [`crate::GroupError`] for identifier clashes, empty membership, a
    /// membership list without this process, an invalid configuration, or a
    /// §5.3-forbidden duplicate membership ("Pi must not be a member of any
    /// gx such that Vx,i = gn").
    pub fn initiate_group(
        &mut self,
        now: Instant,
        group: GroupId,
        members: &BTreeSet<ProcessId>,
        config: GroupConfig,
    ) -> Result<Vec<Action>, crate::GroupError> {
        self.observe_time(now);
        config.validate()?;
        if self.groups.contains_key(&group) || self.forming.contains_key(&group) {
            return Err(crate::GroupError::AlreadyExists { group });
        }
        if members.is_empty() {
            return Err(crate::GroupError::EmptyMembership);
        }
        if !members.contains(&self.id()) {
            return Err(crate::GroupError::NotInMemberList { group });
        }
        if let Some((existing, _)) = self
            .groups
            .iter()
            .find(|(_, gs)| gs.view.members() == members)
        {
            return Err(crate::GroupError::DuplicateMembership {
                existing: *existing,
            });
        }
        let me = self.id();
        let deadline = now + self.config().formation_timeout;
        self.forming.insert(
            group,
            Forming {
                initiator: me,
                members: members.clone(),
                config,
                votes: BTreeMap::new(),
                my_vote_cast: false,
                deadline,
                early: Vec::new(),
            },
        );
        let mut out = Vec::new();
        for dst in members.iter().filter(|p| **p != me) {
            out.push(Action::Send {
                to: *dst,
                envelope: Envelope::Control(ControlMessage::FormGroup {
                    group,
                    initiator: me,
                    members: members.clone(),
                    config,
                }),
            });
        }
        self.merge_orphan_votes(group, &mut out);
        self.formation_progress(group, &mut out);
        let _ = self.drain_deferred(&mut out);
        self.pump(&mut out);
        Ok(out)
    }

    pub(crate) fn handle_control(
        &mut self,
        from: ProcessId,
        c: ControlMessage,
        out: &mut Vec<Action>,
    ) {
        match c {
            ControlMessage::FormGroup {
                group,
                initiator,
                members,
                config,
            } => self.on_form_group(from, group, initiator, members, config, out),
            ControlMessage::FormVote {
                group,
                voter,
                decision,
            } => self.apply_vote(group, voter, decision, out),
        }
    }

    /// Step 2: an invitation arrived; diffuse our vote to every intended
    /// member.
    fn on_form_group(
        &mut self,
        _from: ProcessId,
        group: GroupId,
        initiator: ProcessId,
        members: BTreeSet<ProcessId>,
        config: GroupConfig,
        out: &mut Vec<Action>,
    ) {
        let me = self.id();
        if self.groups.contains_key(&group)
            || self.forming.contains_key(&group)
            || !members.contains(&me)
        {
            return;
        }
        // A malformed configuration is vetoed rather than silently adopted.
        let decision = if config.validate().is_err() {
            FormationDecision::No
        } else {
            self.vote_policy
                .get(&group)
                .copied()
                .unwrap_or(FormationDecision::Yes)
        };
        // Non-initiators wait considerably longer than the initiator's
        // vote-collection window before giving up.
        let deadline = self.now() + self.config().formation_timeout.saturating_mul(3);
        let mut votes = BTreeMap::new();
        votes.insert(me, decision);
        self.forming.insert(
            group,
            Forming {
                initiator,
                members: members.clone(),
                config,
                votes,
                my_vote_cast: true,
                deadline,
                early: Vec::new(),
            },
        );
        self.diffuse_vote(group, &members, decision, out);
        if decision == FormationDecision::No {
            self.forming.remove(&group);
            out.push(Action::FormationFailed {
                group,
                reason: FormationFailure::Vetoed { by: me },
            });
            return;
        }
        self.merge_orphan_votes(group, out);
        self.formation_progress(group, out);
    }

    /// Steps 2–4: record a vote; a `no` is a veto, complete yes-sets
    /// activate.
    fn apply_vote(
        &mut self,
        group: GroupId,
        voter: ProcessId,
        decision: FormationDecision,
        out: &mut Vec<Action>,
    ) {
        if self.groups.contains_key(&group) {
            return; // already activated; late duplicate
        }
        let Some(f) = self.forming.get_mut(&group) else {
            let orphans = self.orphan_votes.entry(group).or_default();
            if orphans.len() < ORPHAN_VOTE_CAP {
                orphans.push((voter, decision));
            }
            return;
        };
        if !f.members.contains(&voter) {
            return;
        }
        f.votes.entry(voter).or_insert(decision);
        if decision == FormationDecision::No {
            self.forming.remove(&group);
            out.push(Action::FormationFailed {
                group,
                reason: FormationFailure::Vetoed { by: voter },
            });
            return;
        }
        self.formation_progress(group, out);
    }

    fn merge_orphan_votes(&mut self, group: GroupId, out: &mut Vec<Action>) {
        if let Some(votes) = self.orphan_votes.remove(&group) {
            for (voter, decision) in votes {
                self.apply_vote(group, voter, decision, out);
            }
        }
    }

    fn diffuse_vote(
        &mut self,
        group: GroupId,
        members: &BTreeSet<ProcessId>,
        decision: FormationDecision,
        out: &mut Vec<Action>,
    ) {
        let me = self.id();
        for dst in members.iter().filter(|p| **p != me) {
            out.push(Action::Send {
                to: *dst,
                envelope: Envelope::Control(ControlMessage::FormVote {
                    group,
                    voter: me,
                    decision,
                }),
            });
        }
    }

    /// Cancels an in-flight formation with a veto (used by
    /// [`Process::depart`] on a still-forming group).
    pub(crate) fn veto_forming(&mut self, f: &Forming, group: GroupId, out: &mut Vec<Action>) {
        let members = f.members.clone();
        self.diffuse_vote(group, &members, FormationDecision::No, out);
        out.push(Action::FormationFailed {
            group,
            reason: FormationFailure::Vetoed { by: self.id() },
        });
    }

    /// Step 3 (initiator votes last) and the activation condition (step 4:
    /// "if a Pk receives an 'yes' from every proposed member").
    fn formation_progress(&mut self, group: GroupId, out: &mut Vec<Action>) {
        let me = self.id();
        let Some(f) = self.forming.get_mut(&group) else {
            return;
        };
        if f.initiator == me && !f.my_vote_cast {
            let others_yes = f
                .members
                .iter()
                .filter(|p| **p != me)
                .all(|p| f.votes.get(p) == Some(&FormationDecision::Yes));
            if others_yes {
                f.votes.insert(me, FormationDecision::Yes);
                f.my_vote_cast = true;
                let members = f.members.clone();
                self.diffuse_vote(group, &members, FormationDecision::Yes, out);
            }
        }
        let Some(f) = self.forming.get(&group) else {
            return;
        };
        let all_yes = f
            .members
            .iter()
            .all(|p| f.votes.get(p) == Some(&FormationDecision::Yes));
        if all_yes {
            self.activate_group(group, out);
        }
    }

    /// Step 4: every vote was yes — install the initial view, start the
    /// time-silence and group-view machinery, and announce our start-number.
    fn activate_group(&mut self, group: GroupId, out: &mut Vec<Action>) {
        let Some(f) = self.forming.remove(&group) else {
            return;
        };
        let now = self.now();
        self.groups.insert(
            group,
            GroupState::new(
                group,
                self.id(),
                f.config,
                f.members,
                now,
                GroupPhase::AwaitStart {
                    starters: BTreeSet::new(),
                    start_number_max: Msn::ZERO,
                },
            ),
        );
        self.push_deferred_front(DeferredSend::StartGroup { group });
        for (from, m) in f.early {
            self.receive_group_message(from, m, out);
        }
        let _ = self.drain_deferred(out);
    }

    /// Step 5 receipt: record the sender's start-number proposal.
    pub(crate) fn on_start_group(
        &mut self,
        group: GroupId,
        from: ProcessId,
        c: Msn,
        out: &mut Vec<Action>,
    ) {
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        let mut recorded = false;
        if let GroupPhase::AwaitStart {
            starters,
            start_number_max,
        } = &mut gs.phase
        {
            starters.insert(from);
            if c > *start_number_max {
                *start_number_max = c;
            }
            recorded = true;
        }
        if recorded {
            self.check_start_complete(group, out);
        }
    }

    /// Step 5 completion: a start-group message from every member of the
    /// *current* view (exclusions during formation shrink the requirement).
    /// On completion the logical clock is raised to start-number-max so all
    /// computational messages are numbered above every proposal.
    pub(crate) fn check_start_complete(&mut self, group: GroupId, out: &mut Vec<Action>) {
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        let GroupPhase::AwaitStart {
            starters,
            start_number_max,
        } = &gs.phase
        else {
            return;
        };
        let members: Vec<ProcessId> = gs.view.iter().collect();
        if !members.iter().all(|m| starters.contains(m)) {
            return;
        }
        let snm = *start_number_max;
        self.lc.raise_to(snm);
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        gs.phase = GroupPhase::Active;
        out.push(Action::GroupActive {
            group,
            view: gs.view.clone(),
        });
    }

    /// Step-3 deadlines: the initiator vetoes on timeout; non-initiators
    /// give up after a longer grace period (the initiator has vanished).
    pub(crate) fn formation_tick(&mut self, out: &mut Vec<Action>) {
        let now = self.now();
        let me = self.id();
        let expired: Vec<GroupId> = self
            .forming
            .iter()
            .filter(|(_, f)| f.deadline <= now)
            .map(|(g, _)| *g)
            .collect();
        for group in expired {
            let Some(f) = self.forming.remove(&group) else {
                continue;
            };
            if f.initiator == me {
                let members = f.members.clone();
                self.diffuse_vote(group, &members, FormationDecision::No, out);
            }
            let missing = f
                .members
                .iter()
                .filter(|p| **p != me && !f.votes.contains_key(p))
                .copied()
                .collect();
            out.push(Action::FormationFailed {
                group,
                reason: FormationFailure::TimedOut { missing },
            });
        }
    }
}

//! The membership service (§5.2): failure suspicion, the
//! suspect/refute/confirmed agreement (steps (i)–(vii)) and view
//! installation (step (viii)), plus our documented completion for
//! asymmetric groups (the sequencer's in-stream `ViewCut`).
//!
//! An adopted detection `F` waits in the group's install queue until
//! `V − F` installs; its [`Gate`] is a number barrier `Barrier(N)` or
//! `AwaitCut`, the sequencer's `ViewCut`. Barriers precede cut-awaiting
//! entries. The transitions, each implemented once:
//!
//! | | on | when | then |
//! |---|---|---|---|
//! | T1 | adopt | symmetric | queue `Barrier(min ln)`; step-(viii) discards |
//! | T2 | adopt | asymmetric, sequencer ∈ `F` | `Barrier(sequencer's ln)` absorbing every `AwaitCut` |
//! | T3 | adopt | asymmetric, otherwise | queue `AwaitCut`; the sequencer emits the `ViewCut` |
//! | T4 | `ViewCut` delivered | | install, dropping its `AwaitCut` entry |
//! | T5 | head `Barrier(N)` met | | install |
//! | T6 | install | an `AwaitCut` names the new sequencer | as T2, and `D_{x,i}` jumps to `N` |
//! | T7 | install | otherwise, we are the sequencer | emit every awaited `ViewCut` |

use crate::action::{Action, ProtocolEvent};
use crate::group::{Gate, GroupPhase, GroupState, PendingInstall};
use crate::process::Process;
use newtop_types::{GroupId, Message, MessageBody, Msn, OrderMode, ProcessId, Suspicion};
use std::collections::BTreeSet;

impl Process {
    /// Step (i): the local suspector `S_i` notifies `GV_i` of `{P_k, ln}`;
    /// the suspicion is recorded and multicast.
    pub(crate) fn suspector_notify(
        &mut self,
        group: GroupId,
        suspect: ProcessId,
        out: &mut Vec<Action>,
    ) {
        let me = self.id();
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        if suspect == me
            || gs.suspicions.contains_key(&suspect)
            || !gs.view.contains(suspect)
            || gs.is_failed(suspect)
        {
            return;
        }
        let ln = gs.rv.get(suspect);
        let ln = if ln.is_infinite() { Msn::ZERO } else { ln };
        gs.suspicions.insert(suspect, ln);
        gs.touch_timers();
        let pair = Suspicion { suspect, ln };
        self.send_numbered(group, |_| MessageBody::Suspect(pair), out);
        self.stats_mut().suspects_sent += 1;
        out.push(Action::Event(ProtocolEvent::Suspected { group, pair }));
        self.check_consensus(group, out);
        self.recheck_pending_confirms(group, out);
    }

    /// Step (ii) and the gossip/refute halves of (iii): a `suspect` message
    /// arrived from `from`.
    pub(crate) fn on_suspect(
        &mut self,
        group: GroupId,
        from: ProcessId,
        pair: Suspicion,
        out: &mut Vec<Action>,
    ) {
        if pair.suspect == self.id() {
            // "If GVi ever receives (k, suspect, {Pi, ln}), it takes no
            // action in the hope that some GVj will refute that suspicion."
            return;
        }
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        if !gs.view.contains(pair.suspect) || gs.is_failed(pair.suspect) {
            return;
        }
        gs.supporters
            .entry((pair.suspect, pair.ln))
            .or_default()
            .insert(from);
        if gs.suspicions.get(&pair.suspect) == Some(&pair.ln) {
            // Another process shares our exact suspicion: support for (v).
            self.check_consensus(group, out);
        } else if gs.rv.get(pair.suspect) > pair.ln && !gs.rv.get(pair.suspect).is_infinite() {
            // Condition (iii): we hold a message of the suspect numbered
            // above ln — refute, piggybacking the missing messages.
            gs.supporters.remove(&(pair.suspect, pair.ln));
            self.send_refute(group, pair, out);
        }
        // Otherwise the suspicion is recorded as gossip, judgement
        // suspended pending our own suspector (step (ii)).
    }

    /// Emits `(i, refute, {P_k, ln})` with every retained message of `P_k`
    /// piggybacked (steps (iii)/(iv)) and our `RV[k]` as the refute's
    /// `upto`.
    ///
    /// The piggyback is *all* of `P_k`'s retained (= unstable) messages,
    /// not just those above `ln`: the refute is a multicast, and a third
    /// party whose own receive watermark is below `ln` (a partition or
    /// crash severed the tail of `P_k`'s stream toward it) must not have
    /// its RV advanced over messages it never saw — that would corrupt the
    /// `ln` it later contributes to a detection, and the step-(viii)
    /// delivery bound with it. Everything stable is at every member by
    /// definition (§5.1), so "all retained" is exactly the set some member
    /// might still be missing; receivers drop the duplicates by watermark.
    pub(crate) fn send_refute(&mut self, group: GroupId, pair: Suspicion, out: &mut Vec<Action>) {
        let Some(gs) = self.groups.get(&group) else {
            return;
        };
        let recovered = gs
            .rv
            .slot(pair.suspect)
            .map_or_else(Vec::new, |slot| gs.retention.above(slot, Msn::ZERO));
        let upto = gs.rv.get(pair.suspect);
        self.send_numbered(
            group,
            |_| MessageBody::Refute {
                suspicion: pair,
                upto,
                recovered,
            },
            out,
        );
        self.stats_mut().refutes_sent += 1;
    }

    /// Step (iv): a refutation of `pair` arrived from `from`, carrying the
    /// suspect's missing messages and the refuter's `RV[k]` as `upto`.
    pub(crate) fn on_refute(
        &mut self,
        group: GroupId,
        from: ProcessId,
        pair: Suspicion,
        upto: Msn,
        recovered: Vec<Message>,
        out: &mut Vec<Action>,
    ) {
        {
            let Some(gs) = self.groups.get(&group) else {
                return;
            };
            if !gs.view.contains(pair.suspect) || gs.is_failed(pair.suspect) {
                return;
            }
        }
        // Note whether this refute targets our own live suspicion *before*
        // integrating the piggyback: integration can overtake the suspicion
        // via `maybe_self_refute`, and the withdrawal should be attributed
        // to the refuter either way.
        let had_own = self
            .groups
            .get(&group)
            .is_some_and(|gs| gs.suspicions.get(&pair.suspect) == Some(&pair.ln));
        let mut rec = recovered;
        rec.sort_by_key(|m| m.c);
        let n_candidates = rec.len();
        for rm in rec {
            self.integrate_recovered(group, rm, out);
        }
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        // The refuter held every message of the suspect numbered up to
        // `upto` and piggybacked each unstable one; the stable ones are
        // everywhere already. With the piggyback integrated we hold them
        // all too, so `upto` is ours to adopt. (Its last step may have been
        // an implicit null that no retained message records — without the
        // adoption the refute would not lift the suspicion, and the
        // members would re-raise and withdraw it every Ω.) Adopting before
        // the integration would drop the piggyback as duplicates.
        if !upto.is_infinite() {
            if let Some(slot) = gs.rv.slot(pair.suspect) {
                gs.advance_stream(slot, upto, Msn::ZERO);
            }
        }
        gs.supporters.remove(&(pair.suspect, pair.ln));
        // A refuted pair can never be confirmed (a confirm requires
        // unanimous support at that exact ln); drop stale pending confirms
        // containing it.
        gs.pending_confirms.retain(|(_, det)| !det.contains(&pair));
        let still_held = gs.suspicions.get(&pair.suspect) == Some(&pair.ln);
        if had_own && still_held {
            self.withdraw_suspicion(group, pair, from, n_candidates, out);
        } else if !had_own {
            // Recovered messages may also have overtaken a *different* own
            // suspicion of the same process.
            self.maybe_self_refute(group, pair.suspect, out);
        }
    }

    /// Removes our suspicion `pair`, drains the suspect's pending messages,
    /// re-multicasts the refutation (step (iv) propagation) and restarts the
    /// suspect's silence timer. Runs only while the suspect is in the view
    /// (a live suspicion names a member; its exclusion drops it), so the
    /// restart never records a non-member.
    fn withdraw_suspicion(
        &mut self,
        group: GroupId,
        pair: Suspicion,
        by: ProcessId,
        recovered: usize,
        out: &mut Vec<Action>,
    ) {
        let now = self.now();
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        gs.suspicions.remove(&pair.suspect);
        gs.restart_silence(pair.suspect, now);
        let pending = gs.pending_from.remove(&pair.suspect).unwrap_or_default();
        for m in pending {
            // "The pending messages will be assumed to have been just
            // received, and will be handled appropriately." (Copies that a
            // refutation piggyback already integrated are deduplicated by
            // the receive path's RV watermark check.) The slot is looked up
            // per message: an integration may install a view.
            let Some(slot) = self
                .groups
                .get(&group)
                .and_then(|gs| gs.rv.slot(pair.suspect))
            else {
                break; // the suspect left the view: discard, as on receipt
            };
            self.integrate_live_message(group, pair.suspect, slot, m, out);
        }
        self.send_refute(group, pair, out);
        out.push(Action::Event(ProtocolEvent::Refuted {
            group,
            pair,
            by,
            recovered,
        }));
        self.check_consensus(group, out);
    }

    /// If we hold messages of `pk` numbered above our own suspicion's `ln`
    /// (possible after integrating a recovery piggyback), the suspicion is
    /// stale: withdraw it as if refuted.
    pub(crate) fn maybe_self_refute(
        &mut self,
        group: GroupId,
        pk: ProcessId,
        out: &mut Vec<Action>,
    ) {
        let Some(gs) = self.groups.get(&group) else {
            return;
        };
        let Some(&ln) = gs.suspicions.get(&pk) else {
            return;
        };
        let rv = gs.rv.get(pk);
        if !rv.is_infinite() && rv > ln {
            let pair = Suspicion { suspect: pk, ln };
            let me = self.id();
            self.withdraw_suspicion(group, pair, me, 0, out);
        }
    }

    /// Condition (iii) re-check on receipt: a fresh message from `from` may
    /// refute gossip suspicions of `from` recorded earlier — also when the
    /// message itself made us suspect `from` (a `Depart`, or a `confirmed`
    /// naming us) at its own number: a co-member's lower suspicion must
    /// still be refuted, or it withholds its support for ours forever.
    pub(crate) fn refute_scan(&mut self, group: GroupId, from: ProcessId, out: &mut Vec<Action>) {
        let Some(gs) = self.groups.get(&group) else {
            return;
        };
        if gs.supporters.is_empty() {
            return; // no gossip recorded: nothing to refute
        }
        let rv = gs.rv.get(from);
        if rv.is_infinite() {
            return;
        }
        let refutable: Vec<Suspicion> = gs
            .supporters
            .keys()
            .filter(|(pk, ln)| *pk == from && rv > *ln)
            .map(|(pk, ln)| Suspicion {
                suspect: *pk,
                ln: *ln,
            })
            .collect();
        for pair in refutable {
            if let Some(gs) = self.groups.get_mut(&group) {
                gs.supporters.remove(&(pair.suspect, pair.ln));
            }
            self.send_refute(group, pair, out);
        }
    }

    /// Steps (v) is evaluated here: if every current suspicion is supported
    /// by every required member, confirm the whole set as a detection.
    pub(crate) fn check_consensus(&mut self, group: GroupId, out: &mut Vec<Action>) {
        let me = self.id();
        let Some(gs) = self.groups.get(&group) else {
            return;
        };
        if gs.suspicions.is_empty() {
            return;
        }
        let required: Vec<ProcessId> = gs
            .view
            .iter()
            .filter(|p| *p != me && !gs.suspicions.contains_key(p) && !gs.is_failed(*p))
            .collect();
        let unanimous = gs.suspicions.iter().all(|(pk, ln)| {
            let sup = gs.supporters.get(&(*pk, *ln));
            required.iter().all(|r| sup.is_some_and(|s| s.contains(r)))
        });
        if unanimous {
            let detection: Vec<Suspicion> = gs
                .suspicions
                .iter()
                .map(|(pk, ln)| Suspicion {
                    suspect: *pk,
                    ln: *ln,
                })
                .collect();
            self.adopt_detection(group, detection, out);
        }
    }

    /// Step (vi)/(vii): a `confirmed` message arrived.
    pub(crate) fn on_confirmed(
        &mut self,
        group: GroupId,
        from: ProcessId,
        detection: Vec<Suspicion>,
        out: &mut Vec<Action>,
    ) {
        if detection.iter().any(|p| p.suspect == self.id()) {
            // Step (vii): "Pj has succeeded in suspecting Pi, so reciprocate
            // by suspecting Pj".
            self.reciprocate(group, from, out);
            return;
        }
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        let filtered: Vec<Suspicion> = detection
            .into_iter()
            .filter(|p| gs.view.contains(p.suspect) && !gs.is_failed(p.suspect))
            .collect();
        if filtered.is_empty() {
            return;
        }
        let subset = filtered
            .iter()
            .all(|p| gs.suspicions.get(&p.suspect) == Some(&p.ln));
        if subset {
            self.adopt_detection(group, filtered, out);
        } else {
            gs.pending_confirms.push((from, filtered));
        }
    }

    /// Step (vii): force the suspector to suspect the sender of a confirmed
    /// detection that names this process.
    fn reciprocate(&mut self, group: GroupId, from: ProcessId, out: &mut Vec<Action>) {
        self.suspector_notify(group, from, out);
    }

    /// Re-evaluates held `confirmed` messages after the suspicion set or
    /// the view changed (step (vi) is not a one-shot test).
    pub(crate) fn recheck_pending_confirms(&mut self, group: GroupId, out: &mut Vec<Action>) {
        loop {
            let Some(gs) = self.groups.get_mut(&group) else {
                return;
            };
            if gs.pending_confirms.is_empty() {
                return;
            }
            let mut adopt: Option<Vec<Suspicion>> = None;
            let mut keep: Vec<(ProcessId, Vec<Suspicion>)> = Vec::new();
            for (from, det) in std::mem::take(&mut gs.pending_confirms) {
                if adopt.is_some() {
                    keep.push((from, det));
                    continue;
                }
                let filtered: Vec<Suspicion> = det
                    .into_iter()
                    .filter(|p| gs.view.contains(p.suspect) && !gs.is_failed(p.suspect))
                    .collect();
                if filtered.is_empty() {
                    continue; // fully stale: drop
                }
                if filtered
                    .iter()
                    .all(|p| gs.suspicions.get(&p.suspect) == Some(&p.ln))
                {
                    adopt = Some(filtered);
                } else {
                    keep.push((from, filtered));
                }
            }
            gs.pending_confirms = keep;
            match adopt {
                Some(det) => {
                    self.adopt_detection(group, det, out);
                    // Loop: adopting may unlock further held confirms.
                }
                None => return,
            }
        }
    }

    /// Common adoption path for steps (v) and (vi): broadcast the confirmed
    /// detection, release the `D` bound (`RV[k] := ∞; SV[k] := ∞`) and
    /// queue the installation — T1, T2 or T3 of the module table.
    pub(crate) fn adopt_detection(
        &mut self,
        group: GroupId,
        detection: Vec<Suspicion>,
        out: &mut Vec<Action>,
    ) {
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        let failed: BTreeSet<ProcessId> = detection.iter().map(|s| s.suspect).collect();
        release(gs, &failed);
        gs.on_stability_advance();
        let det = detection.clone();
        self.send_numbered(
            group,
            move |_| MessageBody::Confirmed { detection: det },
            out,
        );
        self.stats_mut().confirms_sent += 1;
        out.push(Action::Event(ProtocolEvent::DetectionAdopted {
            group,
            detection: detection.clone(),
        }));
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        match gs.cfg.mode {
            OrderMode::Symmetric => {
                let bound = detection
                    .iter()
                    .map(|s| s.ln)
                    .min()
                    .expect("detections are nonempty");
                self.queue_barrier(group, failed, bound, out);
            }
            OrderMode::Asymmetric => {
                gs.install_queue.push_back(PendingInstall {
                    failed,
                    gate: Gate::AwaitCut(detection.clone()),
                });
                gs.touch_timers();
                if !self.fall_back_to_barrier(group, out)
                    && self
                        .groups
                        .get(&group)
                        .is_some_and(GroupState::is_sequencer)
                {
                    self.send_numbered(group, move |_| MessageBody::ViewCut { detection }, out);
                }
            }
        }
        self.check_consensus(group, out);
        self.recheck_pending_confirms(group, out);
    }

    /// Queues `update_view(F, N)` behind a number barrier, applying the
    /// step-(viii) discards for it.
    fn queue_barrier(
        &mut self,
        group: GroupId,
        failed: BTreeSet<ProcessId>,
        bound: Msn,
        out: &mut Vec<Action>,
    ) {
        self.apply_discards(group, &failed, bound, out);
        if let Some(gs) = self.groups.get_mut(&group) {
            gs.install_queue.push_back(PendingInstall {
                failed,
                gate: Gate::Barrier(bound),
            });
            gs.touch_timers();
        }
    }

    /// T2/T6: if a cut-awaiting detection names the current sequencer,
    /// that sequencer will never cut. Every cut-awaiting entry is merged
    /// into one number barrier at the sequencer's agreed `ln`, the agreed
    /// end of its stream: consensus required every member to have received
    /// up to it, and nothing beyond it will ever be ordered. `D_{x,i}`
    /// jumps there, since it only ever tracked the previous sequencer's
    /// stream and adoption already released `RV` of this one to ∞; that
    /// releases the buffered tail and lets the barrier pass. (Under T2 the
    /// jump is a no-op: `D_{x,i}` already covers everything received from
    /// the sequencer.) Without this fallback the group wedges with the dead
    /// sequencer in its view, freezing the merged cross-group delivery
    /// order of every member (churn seed 1401). Returns whether it applied.
    fn fall_back_to_barrier(&mut self, group: GroupId, out: &mut Vec<Action>) -> bool {
        let Some(gs) = self.groups.get_mut(&group) else {
            return false;
        };
        let Some(sequencer) = gs.sequencer() else {
            return false;
        };
        let Some(bound) = gs.install_queue.iter().find_map(|i| match &i.gate {
            Gate::AwaitCut(det) => det.iter().find(|s| s.suspect == sequencer).map(|s| s.ln),
            Gate::Barrier(_) => None,
        }) else {
            return false;
        };
        let mut failed = BTreeSet::new();
        gs.install_queue.retain(|i| match i.gate {
            Gate::AwaitCut(_) => {
                failed.extend(i.failed.iter().copied());
                false
            }
            Gate::Barrier(_) => true,
        });
        gs.d_asym = gs.d_asym.max(bound);
        self.queue_barrier(group, failed, bound, out);
        true
    }

    /// The step-(viii) safety measure: drop every undelivered or retained
    /// message of a failed process numbered above the agreed bound, "even
    /// though it has been agreed that m was sent before Pk failed", so that
    /// an undeliverable causal predecessor can never orphan a successor
    /// (preserves MD5; see the paper's Example 1).
    fn apply_discards(
        &mut self,
        group: GroupId,
        failed: &BTreeSet<ProcessId>,
        bound: Msn,
        out: &mut Vec<Action>,
    ) {
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        for pk in failed {
            let dropped = gs.buffer.discard_from_above(*pk, bound);
            if let Some(slot) = gs.rv.slot(*pk) {
                gs.retention.discard_from_above(slot, bound);
            }
            gs.pending_from.remove(pk);
            if dropped > 0 {
                out.push(Action::Event(ProtocolEvent::Discarded {
                    group,
                    from: *pk,
                    above: bound,
                    count: dropped,
                }));
            }
        }
    }

    /// T5: installs the head of the queue if it waits on a number barrier
    /// `N` that is met — every message with `c <= N` delivered and none
    /// still able to arrive.
    pub(crate) fn try_install_head(&mut self, group: GroupId, out: &mut Vec<Action>) -> bool {
        let Some(gs) = self.groups.get_mut(&group) else {
            return false;
        };
        let Some(bound) = gs.head_barrier() else {
            return false;
        };
        if gs.buffer.has_le(bound) || gs.d_x() < bound {
            return false;
        }
        let head = gs.install_queue.pop_front().expect("head checked");
        gs.touch_timers();
        self.execute_install(group, head.failed, out);
        true
    }

    /// T4, our asymmetric-mode completion: the sequencer's in-stream
    /// `ViewCut` reached its delivery position; install the view here.
    /// Every member delivers the identical stream prefix before the cut,
    /// which restores the VC3 atomicity that a wall-clock install point
    /// would break.
    pub(crate) fn install_at_cut(
        &mut self,
        group: GroupId,
        from: ProcessId,
        detection: Vec<Suspicion>,
        out: &mut Vec<Action>,
    ) {
        if detection.iter().any(|p| p.suspect == self.id()) {
            // Step (vii), asymmetric flavour: the sequencer's cut names
            // this process. Installing it would shrink our own view past
            // ourselves (and can empty it entirely, wedging every later
            // send); as with a `confirmed` naming us, reciprocate by
            // suspecting the cut's author instead.
            self.reciprocate(group, from, out);
            return;
        }
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        let failed: BTreeSet<ProcessId> = detection
            .iter()
            .map(|s| s.suspect)
            .filter(|p| gs.view.contains(*p))
            .collect();
        if failed.is_empty() {
            return;
        }
        if let Some(pos) = gs
            .install_queue
            .iter()
            .position(|i| matches!(i.gate, Gate::AwaitCut(_)) && i.failed == failed)
        {
            gs.install_queue.remove(pos);
        }
        // If we had not reached our own consensus yet, adopt the cut's
        // bookkeeping now (the sequencer only emits after unanimity, which
        // required our own suspect message).
        release(gs, &failed);
        self.execute_install(group, failed, out);
    }

    /// `V := V − F` plus all bookkeeping: prune per-member state, emit the
    /// view change, re-check formation completion, sequencer fail-over,
    /// then T6 or T7 for the detections still awaiting a cut.
    pub(crate) fn execute_install(
        &mut self,
        group: GroupId,
        failed: BTreeSet<ProcessId>,
        out: &mut Vec<Action>,
    ) {
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        let old_sequencer = gs.sequencer();
        gs.view = gs.view.excluding(failed.clone());
        gs.touch_timers();
        self.groups.recompute_covers();
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        gs.excluded_count += failed.len() as u32;
        gs.remove_members(&failed);
        for pk in &failed {
            gs.pending_from.remove(pk);
            gs.suspicions.remove(pk);
        }
        let members: BTreeSet<ProcessId> = gs.view.members().clone();
        gs.supporters.retain(|(pk, _), _| members.contains(pk));
        gs.parked_requests.retain(|(pk, _, _)| members.contains(pk));
        if let GroupPhase::AwaitStart { starters, .. } = &mut gs.phase {
            starters.retain(|p| members.contains(p));
        }
        gs.on_stability_advance();
        self.stats_mut().views_installed += 1;
        let Some(gs) = self.groups.get(&group) else {
            return;
        };
        out.push(Action::ViewChange {
            group,
            view: gs.view.clone(),
            signed: gs.signed_view(),
        });
        let sequencer_changed =
            gs.cfg.mode == OrderMode::Asymmetric && gs.sequencer() != old_sequencer;
        if sequencer_changed {
            // Fail-over catch-up for `D_{x,i}`: everything already received
            // from the new sequencer was sent before it took over, but it
            // is that same stream the deliverability (and install-barrier)
            // bound now follows — without this, a new sequencer that goes
            // quiet (or is cut off) right after the handover freezes the
            // bound below positions we have long held, wedging the next
            // install forever.
            if let Some(gs) = self.groups.get_mut(&group) {
                if let Some(new_seq) = gs.sequencer() {
                    let seen = gs.rv.get(new_seq);
                    if !seen.is_infinite() {
                        gs.d_asym = gs.d_asym.max(seen);
                    }
                }
            }
        }
        self.check_start_complete(group, out);
        if sequencer_changed {
            self.resubmit_outstanding(group, out);
        }
        // If this install made us the sequencer, serve the requests that
        // arrived (from faster-installing senders) before it did.
        self.relay_parked_requests(group, out);
        if !self.fall_back_to_barrier(group, out) {
            self.emit_awaited_cuts(group, out);
        }
        // The shrunk view may make pending suspicions unanimous.
        self.check_consensus(group, out);
        self.recheck_pending_confirms(group, out);
    }

    /// T7: as the sequencer after an install, emit the cut of every
    /// detection awaiting one — the group may now be waiting on us.
    fn emit_awaited_cuts(&mut self, group: GroupId, out: &mut Vec<Action>) {
        let Some(gs) = self.groups.get(&group) else {
            return;
        };
        if !gs.is_sequencer() {
            return;
        }
        let cuts: Vec<Vec<Suspicion>> = gs
            .install_queue
            .iter()
            .filter_map(|i| match &i.gate {
                Gate::AwaitCut(det) => Some(det.clone()),
                Gate::Barrier(_) => None,
            })
            .collect();
        for detection in cuts {
            self.send_numbered(group, move |_| MessageBody::ViewCut { detection }, out);
        }
    }

    /// Voluntary departure announcement received: agree on `{sender, c}` —
    /// the departure message is by construction the member's last.
    pub(crate) fn on_depart_msg(
        &mut self,
        group: GroupId,
        from: ProcessId,
        c: Msn,
        out: &mut Vec<Action>,
    ) {
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        if gs.suspicions.contains_key(&from) || !gs.view.contains(from) || gs.is_failed(from) {
            return;
        }
        // The receive path has already advanced RV[from] to c.
        let ln = gs.rv.get(from);
        let ln = if ln.is_infinite() { c } else { ln };
        gs.suspicions.insert(from, ln);
        gs.touch_timers();
        let pair = Suspicion { suspect: from, ln };
        self.send_numbered(group, |_| MessageBody::Suspect(pair), out);
        self.stats_mut().suspects_sent += 1;
        out.push(Action::Event(ProtocolEvent::Suspected { group, pair }));
        self.check_consensus(group, out);
        self.recheck_pending_confirms(group, out);
    }

    /// Integrates one message recovered from a refutation piggyback:
    /// receive-vector/clock effects plus deliverable-class buffering, but no
    /// semantic processing of third-party membership messages (their support
    /// could only matter for the dead, who are not in any required set).
    pub(crate) fn integrate_recovered(
        &mut self,
        group: GroupId,
        rm: Message,
        out: &mut Vec<Action>,
    ) {
        let me = self.id();
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        let pk = rm.sender;
        // `rv` tracks exactly the view's members: the slot lookup is also
        // the membership test.
        let Some(slot) = gs.rv.slot(pk) else {
            return;
        };
        if rm.group != group
            || gs.is_failed(pk)
            || matches!(rm.body, MessageBody::SeqRequest { .. })
        {
            return;
        }
        let have = gs.rv.get_at(slot);
        if have.is_infinite() || rm.c <= have {
            return; // duplicate of something already received
        }
        let rm = std::sync::Arc::new(rm);
        self.lc.observe(rm.c);
        gs.advance_stream(slot, rm.c, rm.ldn);
        gs.on_stability_advance();
        gs.retain_unstable(slot, &rm);
        self.stats_mut().recovered += 1;
        match &rm.body {
            MessageBody::App(_) | MessageBody::ViewCut { .. } => {
                self.deliver_or_buffer(group, rm, out);
            }
            MessageBody::Relay {
                origin, origin_c, ..
            } => {
                let (origin, origin_c) = (*origin, *origin_c);
                if origin == me {
                    self.clear_outstanding(group, origin_c, rm.c);
                }
                self.deliver_or_buffer(group, rm, out);
            }
            MessageBody::StartGroup => self.on_start_group(group, pk, rm.c, out),
            MessageBody::Depart => self.on_depart_msg(group, pk, rm.c, out),
            _ => {}
        }
        self.maybe_self_refute(group, pk, out);
    }
}

/// Releases the agreed-failed `F` from the agreement and the `D` bound:
/// their suspicions and support are settled, `RV[k] := ∞; SV[k] := ∞`,
/// and messages held pending the outcome are dropped.
fn release(gs: &mut GroupState, failed: &BTreeSet<ProcessId>) {
    for pk in failed {
        gs.suspicions.remove(pk);
        gs.rv.set_infinite(*pk);
        gs.sv.set_infinite(*pk);
        gs.pending_from.remove(pk);
    }
    gs.supporters.retain(|(pk, _), _| !failed.contains(pk));
    gs.touch_timers();
}

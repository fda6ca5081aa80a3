//! The membership service (§5.2): failure suspicion, the
//! suspect/refute/confirmed agreement (steps (i)–(vii)) and view
//! installation (step (viii)), plus our documented completion for
//! asymmetric groups (the sequencer's in-stream `ViewCut`).

use crate::action::{Action, ProtocolEvent};
use crate::group::{GroupPhase, PendingInstall};
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
        let recovered = gs.retention.above(pair.suspect, Msn::ZERO);
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
            gs.rv.advance(pair.suspect, upto);
            if gs.cfg.mode == OrderMode::Asymmetric && gs.sequencer() == Some(pair.suspect) {
                gs.d_asym = gs.d_asym.max(upto);
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
    /// suspect's silence timer.
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
        gs.last_heard.insert(pair.suspect, now);
        gs.touch_timers();
        let pending = gs.pending_from.remove(&pair.suspect).unwrap_or_default();
        for m in pending {
            // "The pending messages will be assumed to have been just
            // received, and will be handled appropriately." (Copies that a
            // refutation piggyback already integrated are deduplicated by
            // the receive path's RV watermark check.)
            self.integrate_live_message(group, pair.suspect, m, out);
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
    /// refute gossip suspicions of `from` recorded earlier.
    pub(crate) fn refute_scan(&mut self, group: GroupId, from: ProcessId, out: &mut Vec<Action>) {
        let Some(gs) = self.groups.get(&group) else {
            return;
        };
        if gs.suspicions.contains_key(&from) {
            return; // our own suspicion is not self-refuted by pendings
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
        let suspects: BTreeSet<ProcessId> = gs.suspicions.keys().copied().collect();
        let failed = gs.failed_union();
        let required: Vec<ProcessId> = gs
            .view
            .iter()
            .filter(|p| *p != me && !suspects.contains(p) && !failed.contains(p))
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
        let failed = gs.failed_union();
        let filtered: Vec<Suspicion> = detection
            .into_iter()
            .filter(|p| gs.view.contains(p.suspect) && !failed.contains(&p.suspect))
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
            let failed = gs.failed_union();
            let mut adopt: Option<Vec<Suspicion>> = None;
            let mut keep: Vec<(ProcessId, Vec<Suspicion>)> = Vec::new();
            for (from, det) in std::mem::take(&mut gs.pending_confirms) {
                if adopt.is_some() {
                    keep.push((from, det));
                    continue;
                }
                let filtered: Vec<Suspicion> = det
                    .into_iter()
                    .filter(|p| gs.view.contains(p.suspect) && !failed.contains(&p.suspect))
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
    /// detection, apply the step-(viii) discard rule, release the `D`
    /// bound (`RV[k] := ∞; SV[k] := ∞`) and schedule the installation.
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
        for p in &detection {
            gs.suspicions.remove(&p.suspect);
        }
        gs.touch_timers();
        gs.supporters.retain(|(pk, _), _| !failed.contains(pk));
        for pk in &failed {
            gs.rv.set_infinite(*pk);
            gs.sv.set_infinite(*pk);
            gs.pending_from.remove(pk);
        }
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
                gs.install_queue.push_back(PendingInstall {
                    failed: failed.clone(),
                    bound,
                });
                gs.touch_timers();
                self.apply_discards(group, &failed, bound, out);
            }
            OrderMode::Asymmetric => {
                let sequencer = gs.sequencer().expect("nonempty view");
                if failed.contains(&sequencer) {
                    // Fall back to a number-barrier install at the agreed
                    // sequencer stream position; merge any detections that
                    // were still awaiting the dead sequencer's cut.
                    let bound = detection
                        .iter()
                        .find(|s| s.suspect == sequencer)
                        .map(|s| s.ln)
                        .expect("sequencer pair present");
                    let mut all_failed = failed.clone();
                    for d in gs.asym_awaiting.drain(..) {
                        all_failed.extend(d.iter().map(|s| s.suspect));
                    }
                    gs.install_queue.push_back(PendingInstall {
                        failed: all_failed.clone(),
                        bound,
                    });
                    gs.touch_timers();
                    self.apply_discards(group, &all_failed, bound, out);
                } else {
                    gs.asym_awaiting.push_back(detection.clone());
                    gs.touch_timers();
                    if gs.is_sequencer() {
                        let det = detection.clone();
                        self.send_numbered(
                            group,
                            move |_| MessageBody::ViewCut { detection: det },
                            out,
                        );
                    }
                }
            }
        }
        self.check_consensus(group, out);
        self.recheck_pending_confirms(group, out);
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
            gs.retention.discard_from_above(*pk, bound);
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

    /// Attempts the installation at the head of the queue: the barrier of
    /// `update_view(F, N)` is met once every message with `c <= N` has been
    /// delivered and none can still arrive.
    pub(crate) fn try_install_head(&mut self, group: GroupId, out: &mut Vec<Action>) -> bool {
        let Some(gs) = self.groups.get(&group) else {
            return false;
        };
        let Some(head) = gs.install_queue.front() else {
            return false;
        };
        if gs.buffer.has_le(head.bound) {
            return false; // messages <= N still awaiting delivery
        }
        if gs.barrier_d() < head.bound {
            return false; // messages <= N could still arrive
        }
        let Some(gs) = self.groups.get_mut(&group) else {
            return false;
        };
        let head = gs.install_queue.pop_front().expect("checked nonempty");
        gs.touch_timers();
        self.execute_install(group, head.failed, out);
        true
    }

    /// Our asymmetric-mode completion: the sequencer's in-stream `ViewCut`
    /// reached its delivery position; install the view here. Every member
    /// delivers the identical stream prefix before the cut, which restores
    /// the VC3 atomicity that a wall-clock install point would break.
    pub(crate) fn install_from_viewcut(
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
        let filtered: Vec<Suspicion> = detection
            .into_iter()
            .filter(|p| gs.view.contains(p.suspect))
            .collect();
        if filtered.is_empty() {
            return;
        }
        // If we had not reached our own consensus yet, adopt the cut's
        // bookkeeping now (the sequencer only emits after unanimity, which
        // required our own suspect message).
        let failed: BTreeSet<ProcessId> = filtered.iter().map(|s| s.suspect).collect();
        for p in &filtered {
            gs.suspicions.remove(&p.suspect);
        }
        gs.touch_timers();
        gs.supporters.retain(|(pk, _), _| !failed.contains(pk));
        for pk in &failed {
            gs.rv.set_infinite(*pk);
            gs.sv.set_infinite(*pk);
            gs.pending_from.remove(pk);
        }
        if let Some(pos) = gs
            .asym_awaiting
            .iter()
            .position(|d| d.iter().map(|s| s.suspect).collect::<BTreeSet<_>>() == failed)
        {
            gs.asym_awaiting.remove(pos);
            gs.touch_timers();
        }
        self.execute_install(group, failed, out);
    }

    /// `V := V − F` plus all bookkeeping: prune per-member state, emit the
    /// view change, re-check formation completion, sequencer fail-over.
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
        for pk in &failed {
            gs.rv.remove(*pk);
            gs.sv.remove(*pk);
            gs.last_heard.remove(pk);
            gs.arrivals.remove(pk);
            gs.pending_from.remove(pk);
            gs.retention.remove_sender(*pk);
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
        // Detections adopted while this install was still queued wait in
        // `asym_awaiting` for the sequencer's cut — but the install may
        // have handed the sequencer role to the very process a pending
        // detection names (which will never cut), or to us (whose cut the
        // group now awaits).
        self.reconcile_asym_awaiting(group, out);
        // The shrunk view may make pending suspicions unanimous.
        self.check_consensus(group, out);
        self.recheck_pending_confirms(group, out);
    }

    /// Post-install reconciliation of `asym_awaiting` against the (possibly
    /// new) sequencer. A detection adopted under a queued earlier install
    /// parks awaiting the sequencer's in-stream `ViewCut`; if the install
    /// promoted a process that detection itself names, the cut can never
    /// come — fall back to the number-barrier install at the dead
    /// sequencer's agreed `ln`, exactly as `adopt_detection` does when the
    /// sequencer is in the detection at adoption time. (Without this, the
    /// group wedges with the dead sequencer in the view forever, freezing
    /// the merged cross-group delivery order of every member — found by
    /// the chaos fleet as churn seed 1401.) Symmetrically, if the install
    /// promoted *us*, emit the cuts the group is now waiting on.
    fn reconcile_asym_awaiting(&mut self, group: GroupId, out: &mut Vec<Action>) {
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        if gs.cfg.mode != OrderMode::Asymmetric || gs.asym_awaiting.is_empty() {
            return;
        }
        let Some(sequencer) = gs.sequencer() else {
            return;
        };
        if let Some(pos) = gs
            .asym_awaiting
            .iter()
            .position(|d| d.iter().any(|s| s.suspect == sequencer))
        {
            let det = gs.asym_awaiting.remove(pos).expect("position exists");
            let bound = det
                .iter()
                .find(|s| s.suspect == sequencer)
                .map(|s| s.ln)
                .expect("sequencer pair present");
            let mut all_failed: BTreeSet<ProcessId> = det.iter().map(|s| s.suspect).collect();
            for d in gs.asym_awaiting.drain(..) {
                all_failed.extend(d.iter().map(|s| s.suspect));
            }
            // The handover catch-up in `execute_install` reads `RV[new_seq]`,
            // but adoption already released that entry to ∞ — and `D_{x,i}`
            // only ever tracked the *previous* sequencer's stream. The agreed
            // pair `ln` is the agreed end of the dead sequencer's stream
            // (consensus required every member to have received up to it);
            // nothing beyond it will ever be ordered, so the deliverability
            // bound jumps there, releasing the buffered tail for delivery
            // and letting the number-barrier install pass.
            gs.d_asym = gs.d_asym.max(bound);
            gs.install_queue.push_back(PendingInstall {
                failed: all_failed.clone(),
                bound,
            });
            gs.touch_timers();
            self.apply_discards(group, &all_failed, bound, out);
            return;
        }
        if gs.is_sequencer() {
            let pending: Vec<Vec<Suspicion>> = gs.asym_awaiting.iter().cloned().collect();
            for det in pending {
                self.send_numbered(group, move |_| MessageBody::ViewCut { detection: det }, out);
            }
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
        if rm.group != group
            || !gs.view.contains(pk)
            || gs.is_failed(pk)
            || matches!(rm.body, MessageBody::SeqRequest { .. })
        {
            return;
        }
        let have = gs.rv.get(pk);
        if have.is_infinite() || rm.c <= have {
            return; // duplicate of something already received
        }
        let rm = std::sync::Arc::new(rm);
        self.lc.observe(rm.c);
        gs.rv.advance(pk, rm.c);
        gs.sv.advance(pk, rm.ldn);
        gs.on_stability_advance();
        if gs.cfg.mode == OrderMode::Asymmetric && gs.sequencer() == Some(pk) {
            gs.d_asym = gs.d_asym.max(rm.c);
        }
        if rm.is_retained() {
            gs.retention.store(&rm);
        }
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
                    self.clear_outstanding_recovered(group, origin_c, rm.c);
                }
                self.deliver_or_buffer(group, rm, out);
            }
            MessageBody::StartGroup => self.on_start_group(group, pk, rm.c, out),
            MessageBody::Depart => self.on_depart_msg(group, pk, rm.c, out),
            _ => {}
        }
        self.maybe_self_refute(group, pk, out);
    }

    fn clear_outstanding_recovered(&mut self, group: GroupId, origin_c: Msn, relay_c: Msn) {
        let Some(gs) = self.groups.get_mut(&group) else {
            return;
        };
        if let Some(pos) = gs.outstanding.iter().position(|(c, _)| *c == origin_c) {
            gs.outstanding.remove(pos);
            gs.own_unstable.insert(relay_c);
        }
    }
}

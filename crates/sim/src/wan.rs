//! Topology-aware WAN model: finite-capacity uplinks and inter-region
//! trunks with fair-share bandwidth, plus seeded duplication/reorder knobs.
//!
//! # Model
//!
//! Every node attaches to a *region* through a finite-capacity **uplink**
//! pipe; every ordered region pair is connected by a **trunk** pipe with its
//! own capacity and (possibly asymmetric) propagation latency. A message of
//! `S` bytes is a *transfer*: it first transmits through its sender's
//! uplink, then — if the destination sits in another region — through the
//! `(from, to)` trunk (store-and-forward, so the trunk re-transmits the full
//! size), and finally experiences a propagation latency drawn from the route
//! spec (or the sim's global latency model for intra-region traffic).
//!
//! A pipe of capacity `B` bytes/s shared by `k` concurrent transfers gives
//! each `B/k` (processor sharing, dslab-network style): every start/finish/
//! capacity-change event *re-shares* the pipe — elapsed progress is drained
//! at the old rate, then every remaining transfer's completion is
//! re-scheduled at the new rate. Progress is accounted in **microbytes**
//! (1 byte = 10⁶ µb) with `u128` arithmetic, so draining is exact integer
//! math: a transfer with `r` µb left at rate `B/k` finishes in
//! `ceil(r·k/B)` µs, and draining that many microseconds at the same rate
//! removes at least `r` (`floor(ceil(r·k/B)·B/k) ≥ r`), so a scheduled
//! completion never arrives early.
//!
//! # FIFO discipline
//!
//! The simulator promises FIFO links ([`crate::SimNode::on_message`]).
//! Naive processor sharing breaks that promise: a small message sent later
//! on the same link would overtake a large earlier one. Each pipe therefore
//! admits **at most one transfer per `(src, dst)` flow** into its active
//! set; later same-flow transfers wait (consuming no bandwidth) and are
//! promoted in send order when the flow's head completes. Per-flow FIFO at
//! every stage plus the engine's arrival clamp keeps every link FIFO, and
//! the reorder knob consequently manifests as *reorder-induced queueing
//! delay* (head-of-line blocking at a resequencing receiver) rather than
//! actual out-of-order delivery — the sequenced-transport contract the
//! protocol is built on is never violated.
//!
//! # Determinism
//!
//! All state lives in `Vec`s and `BTreeMap`s iterated in deterministic
//! order; transfer ids are allocated from a deterministic free list; the
//! only randomness (latency, duplication, reorder holds) is drawn from the
//! engine's single seeded RNG at well-defined points. Equal seeds replay
//! bit-identical histories.

use crate::model::LatencyModel;
use newtop_types::{ConfigError, Instant, ProcessId, Span};
use std::collections::{BTreeMap, VecDeque};

/// Microbytes per byte: the fixed-point scale of transfer progress.
const UB_PER_BYTE: u128 = 1_000_000;

/// Capacity and propagation latency of one directed inter-region link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WanLinkSpec {
    /// Propagation latency added after the transfer clears the trunk.
    pub latency: LatencyModel,
    /// Trunk capacity in bytes per second, fair-shared among transfers.
    pub capacity_bps: u64,
}

impl WanLinkSpec {
    /// A link with the given latency and capacity.
    #[must_use]
    pub fn new(latency: LatencyModel, capacity_bps: u64) -> WanLinkSpec {
        WanLinkSpec {
            latency,
            capacity_bps,
        }
    }
}

impl Default for WanLinkSpec {
    /// 30 ms fixed propagation, 1 MB/s capacity.
    fn default() -> WanLinkSpec {
        WanLinkSpec {
            latency: LatencyModel::Fixed(Span::from_millis(30)),
            capacity_bps: 1_000_000,
        }
    }
}

/// Attaches one node to a region, optionally overriding its uplink
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WanAttachment {
    /// The node.
    pub p: ProcessId,
    /// The region it lives in.
    pub region: u32,
    /// Uplink capacity override (bytes/s); `None` uses the default.
    pub uplink_bps: Option<u64>,
}

/// One directed inter-region route (asymmetric by construction: `(a, b)`
/// and `(b, a)` are independent entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WanRoute {
    /// Source region.
    pub from: u32,
    /// Destination region.
    pub to: u32,
    /// The link spec of this direction.
    pub spec: WanLinkSpec,
}

/// Configuration of the WAN model (described in the `wan` module docs).
///
/// # Examples
///
/// ```
/// use newtop_sim::{LatencyModel, WanConfig, WanLinkSpec};
/// use newtop_types::{ProcessId, Span};
///
/// let cfg = WanConfig::new()
///     .attach(ProcessId(1), 0)
///     .attach(ProcessId(2), 1)
///     .with_default_uplink(256_000)
///     .with_route(
///         0,
///         1,
///         WanLinkSpec::new(LatencyModel::Fixed(Span::from_millis(40)), 512_000),
///     );
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WanConfig {
    /// Node-to-region attachments; unlisted nodes land in region 0 with the
    /// default uplink.
    pub attachments: Vec<WanAttachment>,
    /// Uplink capacity (bytes/s) of nodes without an override.
    pub default_uplink_bps: u64,
    /// Explicit directed routes; unlisted ordered pairs use
    /// `default_route`.
    pub routes: Vec<WanRoute>,
    /// Spec of every directed region pair without an explicit route.
    pub default_route: WanLinkSpec,
    /// Transfer size assumed when the engine has no byte sizer installed.
    pub fallback_msg_bytes: u32,
    /// Per-mille probability that a delivery is duplicated.
    pub dup_permille: u32,
    /// Per-mille probability that a delivery suffers an extra reorder hold.
    pub reorder_permille: u32,
    /// Maximum extra hold for a reordered delivery (drawn uniformly from
    /// `1..=reorder_hold`).
    pub reorder_hold: Span,
}

impl Default for WanConfig {
    fn default() -> WanConfig {
        WanConfig::new()
    }
}

impl WanConfig {
    /// A single-region config: 1 MB/s uplinks, default trunks, no
    /// duplication or reordering.
    #[must_use]
    pub fn new() -> WanConfig {
        WanConfig {
            attachments: Vec::new(),
            default_uplink_bps: 1_000_000,
            routes: Vec::new(),
            default_route: WanLinkSpec::default(),
            fallback_msg_bytes: 256,
            dup_permille: 0,
            reorder_permille: 0,
            reorder_hold: Span::from_millis(1),
        }
    }

    /// Attaches `p` to `region` with the default uplink capacity.
    #[must_use]
    pub fn attach(mut self, p: ProcessId, region: u32) -> WanConfig {
        self.attachments.push(WanAttachment {
            p,
            region,
            uplink_bps: None,
        });
        self
    }

    /// Attaches `p` to `region` with an explicit uplink capacity.
    #[must_use]
    pub fn attach_with_uplink(mut self, p: ProcessId, region: u32, bps: u64) -> WanConfig {
        self.attachments.push(WanAttachment {
            p,
            region,
            uplink_bps: Some(bps),
        });
        self
    }

    /// Sets the default uplink capacity (bytes/s).
    #[must_use]
    pub fn with_default_uplink(mut self, bps: u64) -> WanConfig {
        self.default_uplink_bps = bps;
        self
    }

    /// Adds (or replaces) the directed route `from → to`.
    #[must_use]
    pub fn with_route(mut self, from: u32, to: u32, spec: WanLinkSpec) -> WanConfig {
        self.routes.retain(|r| (r.from, r.to) != (from, to));
        self.routes.push(WanRoute { from, to, spec });
        self
    }

    /// Sets the spec used by directed region pairs without an explicit
    /// route.
    #[must_use]
    pub fn with_default_route(mut self, spec: WanLinkSpec) -> WanConfig {
        self.default_route = spec;
        self
    }

    /// Sets the transfer size assumed when no byte sizer is installed.
    #[must_use]
    pub fn with_fallback_msg_bytes(mut self, bytes: u32) -> WanConfig {
        self.fallback_msg_bytes = bytes;
        self
    }

    /// Sets the per-mille delivery-duplication probability.
    #[must_use]
    pub fn with_duplication(mut self, permille: u32) -> WanConfig {
        self.dup_permille = permille;
        self
    }

    /// Sets the per-mille reorder probability and the maximum extra hold.
    #[must_use]
    pub fn with_reorder(mut self, permille: u32, hold: Span) -> WanConfig {
        self.reorder_permille = permille;
        self.reorder_hold = hold;
        self
    }

    /// Checks every capacity, latency model and probability knob.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroCapacity`] for a zero-capacity uplink or trunk,
    /// [`ConfigError::LatencyBoundsInverted`] for an inverted uniform
    /// latency, [`ConfigError::BadPermille`] for a probability knob above
    /// 1000.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.default_uplink_bps == 0 {
            return Err(ConfigError::ZeroCapacity);
        }
        for a in &self.attachments {
            if a.uplink_bps == Some(0) {
                return Err(ConfigError::ZeroCapacity);
            }
        }
        for spec in self
            .routes
            .iter()
            .map(|r| &r.spec)
            .chain(std::iter::once(&self.default_route))
        {
            if spec.capacity_bps == 0 {
                return Err(ConfigError::ZeroCapacity);
            }
            spec.latency.validate()?;
        }
        for &value in &[self.dup_permille, self.reorder_permille] {
            if value > 1000 {
                return Err(ConfigError::BadPermille { value });
            }
        }
        Ok(())
    }

    fn attachment_of(&self, p: ProcessId) -> Option<&WanAttachment> {
        self.attachments.iter().find(|a| a.p == p)
    }
}

/// Which pipe a transfer currently occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Transmitting through the sender's uplink.
    Uplink,
    /// Transmitting through the `(from, to)` trunk.
    Trunk(u32, u32),
}

#[derive(Debug)]
struct Transfer<M> {
    /// Sender, as a dense engine node index.
    src: u32,
    /// Destination node index.
    dst: u32,
    /// Original departure instant (kept for the engine's crash semantics).
    departed: Instant,
    msg: M,
    size_bytes: u64,
    /// Untransmitted microbytes in the current stage.
    remaining_ub: u128,
    stage: Stage,
}

/// One fair-shared pipe (an uplink or a trunk).
#[derive(Debug)]
struct Pipe {
    capacity_bps: u64,
    /// Accounting horizon: progress has been drained up to here.
    last_update: Instant,
    /// Transfers currently sharing the capacity — at most one per flow.
    active: Vec<u32>,
    /// Same-flow transfers queued (in send order) behind the active one.
    waiting: BTreeMap<(u32, u32), VecDeque<u32>>,
}

impl Pipe {
    fn new(capacity_bps: u64) -> Pipe {
        Pipe {
            capacity_bps,
            last_update: Instant::ZERO,
            active: Vec::new(),
            waiting: BTreeMap::new(),
        }
    }
}

/// `(fire at, transfer id, epoch)` triples the engine must schedule as
/// `TransferDone` events. Every re-share invalidates earlier schedules by
/// bumping the per-transfer epoch.
pub(crate) type Sched = Vec<(Instant, u32, u64)>;

/// What a `TransferDone` event amounted to.
pub(crate) enum DoneOutcome<M> {
    /// A superseded schedule (re-shared or dropped since); ignore.
    Stale,
    /// The transfer cleared its uplink and entered an inter-region trunk.
    Trunked {
        /// Transfer size (for the uplink-goodput counter).
        size_bytes: u64,
    },
    /// The transfer cleared its last pipe; the engine now applies
    /// propagation latency, reorder and duplication, then delivers.
    Final {
        /// Sender node index.
        src: u32,
        /// Destination node index.
        dst: u32,
        /// Original departure instant.
        departed: Instant,
        /// The message.
        msg: M,
        /// Transfer size in bytes.
        size_bytes: u64,
        /// `Some((from, to))` if the transfer crossed regions.
        route: Option<(u32, u32)>,
        /// Whether the final stage was the uplink (intra-region traffic).
        from_uplink: bool,
    },
}

/// Runtime state of the WAN model (engine-internal).
pub(crate) struct WanState<M> {
    cfg: WanConfig,
    route_map: BTreeMap<(u32, u32), WanLinkSpec>,
    /// Region of each node, indexed by dense node index.
    region: Vec<u32>,
    /// Uplink pipe of each node, indexed by dense node index.
    uplinks: Vec<Pipe>,
    /// Trunk pipes, created lazily per directed region pair.
    trunks: BTreeMap<(u32, u32), Pipe>,
    /// Transfer slots; `None` is free. Indices are transfer ids.
    transfers: Vec<Option<Transfer<M>>>,
    /// Per-slot schedule epoch; a `TransferDone` event is live only if its
    /// epoch matches. Bumped on every (re)schedule and on slot reuse.
    epochs: Vec<u64>,
    free: Vec<u32>,
}

impl<M> WanState<M> {
    /// Builds the runtime state for nodes `node_ids` (indexed by dense
    /// engine index).
    pub(crate) fn new(cfg: WanConfig, node_ids: &[ProcessId]) -> WanState<M> {
        let route_map = cfg
            .routes
            .iter()
            .map(|r| ((r.from, r.to), r.spec))
            .collect();
        let mut state = WanState {
            cfg,
            route_map,
            region: Vec::new(),
            uplinks: Vec::new(),
            trunks: BTreeMap::new(),
            transfers: Vec::new(),
            epochs: Vec::new(),
            free: Vec::new(),
        };
        for id in node_ids {
            state.attach_node(*id);
        }
        state
    }

    /// Registers a node added to the engine (region + uplink pipe).
    pub(crate) fn attach_node(&mut self, id: ProcessId) {
        let (region, bps) = match self.cfg.attachment_of(id) {
            Some(a) => (
                a.region,
                a.uplink_bps.unwrap_or(self.cfg.default_uplink_bps),
            ),
            None => (0, self.cfg.default_uplink_bps),
        };
        self.region.push(region);
        self.uplinks.push(Pipe::new(bps));
    }

    pub(crate) fn cfg(&self) -> &WanConfig {
        &self.cfg
    }

    fn route_spec(&self, from: u32, to: u32) -> WanLinkSpec {
        self.route_map
            .get(&(from, to))
            .copied()
            .unwrap_or(self.cfg.default_route)
    }

    /// Propagation latency of the directed route `from → to`.
    pub(crate) fn route_latency(&self, from: u32, to: u32) -> LatencyModel {
        self.route_spec(from, to).latency
    }

    fn alloc(&mut self, t: Transfer<M>) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.epochs[id as usize] += 1;
                self.transfers[id as usize] = Some(t);
                id
            }
            None => {
                let id = self.transfers.len() as u32;
                self.transfers.push(Some(t));
                self.epochs.push(0);
                id
            }
        }
    }

    fn release(&mut self, id: u32) -> Transfer<M> {
        let t = self.transfers[id as usize].take().expect("live transfer");
        self.free.push(id);
        t
    }

    /// Admits a message into its sender's uplink.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start(
        &mut self,
        src: u32,
        dst: u32,
        departed: Instant,
        msg: M,
        size_bytes: u64,
        now: Instant,
        sched: &mut Sched,
    ) {
        let id = self.alloc(Transfer {
            src,
            dst,
            departed,
            msg,
            size_bytes,
            remaining_ub: u128::from(size_bytes) * UB_PER_BYTE,
            stage: Stage::Uplink,
        });
        enqueue(
            &mut self.uplinks[src as usize],
            &mut self.transfers,
            &mut self.epochs,
            id,
            (src, dst),
            now,
            sched,
        );
    }

    /// Resolves a fired `TransferDone { id, epoch }` event.
    pub(crate) fn on_done(
        &mut self,
        id: u32,
        epoch: u64,
        now: Instant,
        sched: &mut Sched,
    ) -> DoneOutcome<M> {
        let idx = id as usize;
        if self.transfers.get(idx).is_none_or(Option::is_none) || self.epochs[idx] != epoch {
            return DoneOutcome::Stale;
        }
        let (src, dst, stage) = {
            let t = self.transfers[idx].as_ref().expect("checked above");
            (t.src, t.dst, t.stage)
        };
        let flow = (src, dst);
        match stage {
            Stage::Uplink => detach(
                &mut self.uplinks[src as usize],
                &mut self.transfers,
                &mut self.epochs,
                id,
                flow,
                now,
                sched,
            ),
            Stage::Trunk(a, b) => detach(
                self.trunks.get_mut(&(a, b)).expect("trunk exists"),
                &mut self.transfers,
                &mut self.epochs,
                id,
                flow,
                now,
                sched,
            ),
        }
        let (rs, rd) = (self.region[src as usize], self.region[dst as usize]);
        if stage == Stage::Uplink && rs != rd {
            // Store-and-forward onto the inter-region trunk: the full size
            // transmits again at the trunk's fair share.
            let capacity = self.route_spec(rs, rd).capacity_bps;
            let size_bytes = {
                let t = self.transfers[idx].as_mut().expect("live transfer");
                t.stage = Stage::Trunk(rs, rd);
                t.remaining_ub = u128::from(t.size_bytes) * UB_PER_BYTE;
                t.size_bytes
            };
            enqueue(
                self.trunks
                    .entry((rs, rd))
                    .or_insert_with(|| Pipe::new(capacity)),
                &mut self.transfers,
                &mut self.epochs,
                id,
                flow,
                now,
                sched,
            );
            return DoneOutcome::Trunked { size_bytes };
        }
        let t = self.release(id);
        DoneOutcome::Final {
            src: t.src,
            dst: t.dst,
            departed: t.departed,
            msg: t.msg,
            size_bytes: t.size_bytes,
            route: match stage {
                Stage::Trunk(a, b) => Some((a, b)),
                Stage::Uplink => None,
            },
            from_uplink: stage == Stage::Uplink,
        }
    }

    /// Drops every uplink-stage transfer of a crashed sender: those bytes
    /// never fully left the host. Trunk-stage transfers survive. Returns
    /// `(count, bytes)` dropped.
    pub(crate) fn drop_crashed_src(&mut self, src: u32, now: Instant) -> (u64, u64) {
        let pipe = &mut self.uplinks[src as usize];
        drain(pipe, &mut self.transfers, now);
        let mut ids: Vec<u32> = pipe.active.drain(..).collect();
        for (_, q) in std::mem::take(&mut pipe.waiting) {
            ids.extend(q);
        }
        let (mut count, mut bytes) = (0u64, 0u64);
        for id in ids {
            let t = self.release(id);
            count += 1;
            bytes += t.size_bytes;
        }
        // The emptied pipe needs no re-share; events for the dropped ids go
        // stale through their freed slots.
        (count, bytes)
    }

    /// Removes every transfer whose endpoints the new partition separates
    /// (`crossing(src, dst)`), re-sharing all pipes. Returns the removed
    /// transfers in id-allocation order; the caller imposes a canonical
    /// order before parking or dropping them.
    pub(crate) fn take_crossing(
        &mut self,
        now: Instant,
        sched: &mut Sched,
        crossing: impl Fn(u32, u32) -> bool,
    ) -> Vec<(u32, u32, Instant, M, u64)> {
        let ids: Vec<u32> = self
            .transfers
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.as_ref().is_some_and(|t| crossing(t.src, t.dst)))
            .map(|(i, _)| i as u32)
            .collect();
        if ids.is_empty() {
            return Vec::new();
        }
        // Account elapsed progress at the old shares before any membership
        // change, then remove, then re-share everything once.
        for pipe in self.uplinks.iter_mut().chain(self.trunks.values_mut()) {
            drain(pipe, &mut self.transfers, now);
        }
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            let (pipe, flow) = {
                let t = self.transfers[id as usize].as_ref().expect("live transfer");
                let pipe = match t.stage {
                    Stage::Uplink => &mut self.uplinks[t.src as usize],
                    Stage::Trunk(a, b) => self.trunks.get_mut(&(a, b)).expect("trunk exists"),
                };
                (pipe, (t.src, t.dst))
            };
            pipe.active.retain(|&a| a != id);
            if let Some(q) = pipe.waiting.get_mut(&flow) {
                q.retain(|&w| w != id);
                if q.is_empty() {
                    pipe.waiting.remove(&flow);
                }
            }
            let t = self.release(id);
            out.push((t.src, t.dst, t.departed, t.msg, t.size_bytes));
        }
        for pipe in self.uplinks.iter_mut().chain(self.trunks.values_mut()) {
            resched(pipe, &self.transfers, &mut self.epochs, now, sched);
        }
        out
    }

    /// Changes the capacity (and latency spec) of the directed route
    /// `from → to`, re-sharing its live trunk if one exists.
    pub(crate) fn set_route(
        &mut self,
        from: u32,
        to: u32,
        spec: WanLinkSpec,
        now: Instant,
        sched: &mut Sched,
    ) {
        self.route_map.insert((from, to), spec);
        if let Some(pipe) = self.trunks.get_mut(&(from, to)) {
            drain(pipe, &mut self.transfers, now);
            pipe.capacity_bps = spec.capacity_bps;
            resched(pipe, &self.transfers, &mut self.epochs, now, sched);
        }
    }

    /// Changes a node's uplink capacity, re-sharing its pipe.
    pub(crate) fn set_uplink(&mut self, idx: u32, bps: u64, now: Instant, sched: &mut Sched) {
        let pipe = &mut self.uplinks[idx as usize];
        drain(pipe, &mut self.transfers, now);
        pipe.capacity_bps = bps;
        resched(pipe, &self.transfers, &mut self.epochs, now, sched);
    }

    /// Number of transfers currently held by pipes (tests).
    #[cfg(test)]
    pub(crate) fn live_transfers(&self) -> usize {
        self.transfers.iter().filter(|t| t.is_some()).count()
    }
}

/// Advances a pipe's accounting to `now`: each active transfer transmitted
/// `elapsed_µs · B / k` microbytes since `last_update`. Must run before any
/// mutation of the active set or capacity.
fn drain<M>(pipe: &mut Pipe, transfers: &mut [Option<Transfer<M>>], now: Instant) {
    let elapsed_us = now.saturating_since(pipe.last_update).as_micros();
    pipe.last_update = now;
    let k = pipe.active.len() as u128;
    if k == 0 || elapsed_us == 0 {
        return;
    }
    let per = u128::from(elapsed_us) * u128::from(pipe.capacity_bps) / k;
    for &id in &pipe.active {
        let t = transfers[id as usize].as_mut().expect("active transfer");
        t.remaining_ub = t.remaining_ub.saturating_sub(per);
    }
}

/// Re-schedules every active transfer's completion at the pipe's current
/// share, invalidating earlier schedules via an epoch bump.
fn resched<M>(
    pipe: &mut Pipe,
    transfers: &[Option<Transfer<M>>],
    epochs: &mut [u64],
    now: Instant,
    sched: &mut Sched,
) {
    let k = pipe.active.len() as u128;
    if k == 0 {
        return;
    }
    let cap = u128::from(pipe.capacity_bps);
    for &id in &pipe.active {
        let t = transfers[id as usize].as_ref().expect("active transfer");
        let t_us = (t.remaining_ub * k).div_ceil(cap);
        let at = now + Span::from_micros(u64::try_from(t_us).unwrap_or(u64::MAX));
        epochs[id as usize] += 1;
        sched.push((at, id, epochs[id as usize]));
    }
}

/// Admits `id` into `pipe`: straight into the active set if its flow is
/// idle (re-sharing the pipe), otherwise into the flow's wait queue
/// (consuming no bandwidth, so no re-share).
fn enqueue<M>(
    pipe: &mut Pipe,
    transfers: &mut [Option<Transfer<M>>],
    epochs: &mut [u64],
    id: u32,
    flow: (u32, u32),
    now: Instant,
    sched: &mut Sched,
) {
    drain(pipe, transfers, now);
    let flow_busy = pipe.waiting.contains_key(&flow)
        || pipe.active.iter().any(|&a| {
            let t = transfers[a as usize].as_ref().expect("active transfer");
            (t.src, t.dst) == flow
        });
    if flow_busy {
        pipe.waiting.entry(flow).or_default().push_back(id);
    } else {
        pipe.active.push(id);
        resched(pipe, transfers, epochs, now, sched);
    }
}

/// Removes a completed transfer from `pipe`, promotes the next same-flow
/// waiter (if any) and re-shares.
fn detach<M>(
    pipe: &mut Pipe,
    transfers: &mut [Option<Transfer<M>>],
    epochs: &mut [u64],
    id: u32,
    flow: (u32, u32),
    now: Instant,
    sched: &mut Sched,
) {
    drain(pipe, transfers, now);
    pipe.active.retain(|&a| a != id);
    if let Some(q) = pipe.waiting.get_mut(&flow) {
        if let Some(next) = q.pop_front() {
            pipe.active.push(next);
        }
        if q.is_empty() {
            pipe.waiting.remove(&flow);
        }
    }
    resched(pipe, transfers, epochs, now, sched);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn config_validation_catches_bad_knobs() {
        assert!(WanConfig::new().validate().is_ok());
        assert_eq!(
            WanConfig::new().with_default_uplink(0).validate(),
            Err(ConfigError::ZeroCapacity)
        );
        assert_eq!(
            WanConfig::new().attach_with_uplink(p(1), 0, 0).validate(),
            Err(ConfigError::ZeroCapacity)
        );
        assert_eq!(
            WanConfig::new()
                .with_route(0, 1, WanLinkSpec::new(LatencyModel::default(), 0))
                .validate(),
            Err(ConfigError::ZeroCapacity)
        );
        assert_eq!(
            WanConfig::new().with_duplication(1001).validate(),
            Err(ConfigError::BadPermille { value: 1001 })
        );
        let inverted = LatencyModel::Uniform {
            lo: Span::from_millis(9),
            hi: Span::from_millis(1),
        };
        assert!(matches!(
            WanConfig::new()
                .with_default_route(WanLinkSpec::new(inverted, 1_000))
                .validate(),
            Err(ConfigError::LatencyBoundsInverted { .. })
        ));
    }

    #[test]
    fn with_route_replaces_an_existing_direction_only() {
        let a = WanLinkSpec::new(LatencyModel::Fixed(Span::from_millis(10)), 100);
        let b = WanLinkSpec::new(LatencyModel::Fixed(Span::from_millis(20)), 200);
        let cfg = WanConfig::new()
            .with_route(0, 1, a)
            .with_route(1, 0, a)
            .with_route(0, 1, b);
        assert_eq!(cfg.routes.len(), 2);
        let st: WanState<u64> = WanState::new(cfg, &[p(1), p(2)]);
        assert_eq!(st.route_spec(0, 1), b, "replaced");
        assert_eq!(st.route_spec(1, 0), a, "reverse direction untouched");
        assert_eq!(st.route_spec(1, 2), WanLinkSpec::default(), "default");
    }

    /// A lone 1000-byte transfer on a 1000 B/s uplink takes exactly 1 s.
    #[test]
    fn solo_transfer_time_is_size_over_capacity() {
        let cfg = WanConfig::new().with_default_uplink(1_000);
        let mut st: WanState<u64> = WanState::new(cfg, &[p(1), p(2)]);
        let mut sched = Sched::new();
        st.start(0, 1, Instant::ZERO, 7, 1_000, Instant::ZERO, &mut sched);
        assert_eq!(sched.len(), 1);
        let (at, id, epoch) = sched[0];
        assert_eq!(at, Instant::from_micros(1_000_000));
        let mut sched2 = Sched::new();
        match st.on_done(id, epoch, at, &mut sched2) {
            DoneOutcome::Final {
                msg, from_uplink, ..
            } => {
                assert_eq!(msg, 7);
                assert!(from_uplink);
            }
            _ => panic!("expected final"),
        }
        assert_eq!(st.live_transfers(), 0);
    }

    /// Two concurrent different-flow transfers halve each other's rate;
    /// when the shorter one finishes, the survivor is re-scheduled at full
    /// rate.
    #[test]
    fn fair_share_halves_and_reshares_on_finish() {
        let cfg = WanConfig::new().with_default_uplink(1_000);
        let mut st: WanState<u64> = WanState::new(cfg, &[p(1), p(2), p(3)]);
        let mut sched = Sched::new();
        st.start(0, 1, Instant::ZERO, 1, 500, Instant::ZERO, &mut sched);
        st.start(0, 2, Instant::ZERO, 2, 1_000, Instant::ZERO, &mut sched);
        // Second start re-shares: both now at 500 B/s. Latest schedule for
        // the 500 B transfer: 1 s; for the 1000 B transfer: 2 s.
        let (at0, id0, ep0) = *sched.iter().rev().find(|(_, id, _)| *id == 0).unwrap();
        let (at1, ..) = *sched.iter().rev().find(|(_, id, _)| *id == 1).unwrap();
        assert_eq!(at0, Instant::from_micros(1_000_000));
        assert_eq!(at1, Instant::from_micros(2_000_000));
        let mut sched2 = Sched::new();
        assert!(matches!(
            st.on_done(id0, ep0, at0, &mut sched2),
            DoneOutcome::Final { msg: 1, .. }
        ));
        // Survivor had 500 B left at t=1s, now alone at 1000 B/s → 0.5 s.
        assert_eq!(sched2.len(), 1);
        assert_eq!(sched2[0].0, Instant::from_micros(1_500_000));
        // The earlier 2 s schedule is stale.
        let (_, id1, old_ep1) = (at1, sched2[0].1, 0);
        let _ = id1;
        let mut sched3 = Sched::new();
        assert!(matches!(
            st.on_done(1, old_ep1, Instant::from_micros(2_000_000), &mut sched3),
            DoneOutcome::Stale
        ));
    }

    /// Same-flow transfers never share the pipe: the second waits and is
    /// promoted when the first completes — per-flow FIFO by construction.
    #[test]
    fn same_flow_transfers_serialize_in_send_order() {
        let cfg = WanConfig::new().with_default_uplink(1_000);
        let mut st: WanState<u64> = WanState::new(cfg, &[p(1), p(2)]);
        let mut sched = Sched::new();
        st.start(0, 1, Instant::ZERO, 10, 1_000, Instant::ZERO, &mut sched);
        st.start(0, 1, Instant::ZERO, 11, 10, Instant::ZERO, &mut sched);
        // The tiny second message must NOT be scheduled: its flow is busy.
        assert_eq!(sched.len(), 1, "waiter consumes no bandwidth");
        let (at, id, ep) = sched[0];
        assert_eq!(at, Instant::from_micros(1_000_000), "full rate for head");
        let mut sched2 = Sched::new();
        assert!(matches!(
            st.on_done(id, ep, at, &mut sched2),
            DoneOutcome::Final { msg: 10, .. }
        ));
        // Promotion: the waiter now transmits alone.
        assert_eq!(sched2.len(), 1);
        assert_eq!(sched2[0].0, at + Span::from_micros(10_000));
        let mut sched3 = Sched::new();
        assert!(matches!(
            st.on_done(sched2[0].1, sched2[0].2, sched2[0].0, &mut sched3),
            DoneOutcome::Final { msg: 11, .. }
        ));
    }

    /// Cross-region transfers store-and-forward through the trunk and
    /// report the route for the latency draw.
    #[test]
    fn cross_region_goes_uplink_then_trunk() {
        let cfg = WanConfig::new()
            .attach(p(1), 0)
            .attach(p(2), 1)
            .with_default_uplink(1_000)
            .with_route(
                0,
                1,
                WanLinkSpec::new(LatencyModel::Fixed(Span::from_millis(40)), 2_000),
            );
        let mut st: WanState<u64> = WanState::new(cfg, &[p(1), p(2)]);
        let mut sched = Sched::new();
        st.start(0, 1, Instant::ZERO, 9, 1_000, Instant::ZERO, &mut sched);
        let (at, id, ep) = sched[0];
        assert_eq!(at, Instant::from_micros(1_000_000), "uplink at 1000 B/s");
        let mut sched2 = Sched::new();
        assert!(matches!(
            st.on_done(id, ep, at, &mut sched2),
            DoneOutcome::Trunked { size_bytes: 1_000 }
        ));
        // Trunk stage: full size again at 2000 B/s → +0.5 s.
        assert_eq!(sched2.len(), 1);
        let (at2, id2, ep2) = sched2[0];
        assert_eq!(at2, at + Span::from_micros(500_000));
        let mut sched3 = Sched::new();
        match st.on_done(id2, ep2, at2, &mut sched3) {
            DoneOutcome::Final {
                route, from_uplink, ..
            } => {
                assert_eq!(route, Some((0, 1)));
                assert!(!from_uplink);
            }
            _ => panic!("expected final"),
        }
    }

    #[test]
    fn crashed_sender_loses_uplink_stage_transfers() {
        let cfg = WanConfig::new().with_default_uplink(1_000);
        let mut st: WanState<u64> = WanState::new(cfg, &[p(1), p(2), p(3)]);
        let mut sched = Sched::new();
        st.start(0, 1, Instant::ZERO, 1, 100, Instant::ZERO, &mut sched);
        st.start(0, 1, Instant::ZERO, 2, 100, Instant::ZERO, &mut sched);
        st.start(0, 2, Instant::ZERO, 3, 100, Instant::ZERO, &mut sched);
        let (count, bytes) = st.drop_crashed_src(0, Instant::from_micros(10));
        assert_eq!((count, bytes), (3, 300));
        assert_eq!(st.live_transfers(), 0);
        // All previously scheduled completions are now stale.
        for (at, id, ep) in sched {
            let mut s = Sched::new();
            assert!(matches!(st.on_done(id, ep, at, &mut s), DoneOutcome::Stale));
        }
    }

    #[test]
    fn take_crossing_removes_and_reshares() {
        let cfg = WanConfig::new().with_default_uplink(1_000);
        let mut st: WanState<u64> = WanState::new(cfg, &[p(1), p(2), p(3)]);
        let mut sched = Sched::new();
        st.start(0, 1, Instant::ZERO, 1, 1_000, Instant::ZERO, &mut sched);
        st.start(0, 2, Instant::ZERO, 2, 1_000, Instant::ZERO, &mut sched);
        let mut sched2 = Sched::new();
        let taken = st.take_crossing(Instant::from_micros(500_000), &mut sched2, |_, d| d == 1);
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].3, 1, "the transfer to node 1 was severed");
        assert_eq!(st.live_transfers(), 1);
        // Survivor had transmitted 250 B of 1000 at the half share; alone at
        // 1000 B/s it needs 750 ms more.
        let last = sched2.last().unwrap();
        assert_eq!(last.0, Instant::from_micros(1_250_000));
    }

    #[test]
    fn set_uplink_reshares_live_transfers() {
        let cfg = WanConfig::new().with_default_uplink(1_000);
        let mut st: WanState<u64> = WanState::new(cfg, &[p(1), p(2)]);
        let mut sched = Sched::new();
        st.start(0, 1, Instant::ZERO, 1, 1_000, Instant::ZERO, &mut sched);
        let mut sched2 = Sched::new();
        st.set_uplink(0, 100, Instant::from_micros(500_000), &mut sched2);
        // 500 B left at 100 B/s → 5 s more.
        assert_eq!(sched2.len(), 1);
        assert_eq!(sched2[0].0, Instant::from_micros(5_500_000));
    }
}

//! Network model: latency distributions, partitions and counters.

use newtop_types::{ConfigError, ProcessId, Span};
use rand::Rng;
use std::collections::BTreeSet;

/// Per-message one-way latency distribution of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Fixed(Span),
    /// Uniformly distributed in `[lo, hi]` (inclusive).
    Uniform {
        /// Minimum one-way latency.
        lo: Span,
        /// Maximum one-way latency.
        hi: Span,
    },
}

impl LatencyModel {
    /// Checks the model's invariants (`Uniform` needs `lo <= hi`).
    ///
    /// Validation happens once, where a model enters a configuration
    /// ([`NetConfig::validate`], the WAN config builders, the chaos script
    /// parser) — not per sample on the hot path.
    ///
    /// # Errors
    ///
    /// [`ConfigError::LatencyBoundsInverted`] for a `Uniform` with
    /// `lo > hi`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match *self {
            LatencyModel::Fixed(_) => Ok(()),
            LatencyModel::Uniform { lo, hi } => {
                if lo <= hi {
                    Ok(())
                } else {
                    Err(ConfigError::LatencyBoundsInverted { lo, hi })
                }
            }
        }
    }

    /// Draws one latency sample. The caller guarantees the model passed
    /// [`LatencyModel::validate`]; inverted bounds are a debug-only check
    /// here rather than a per-sample panic in release runs.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Span {
        match *self {
            LatencyModel::Fixed(s) => s,
            LatencyModel::Uniform { lo, hi } => {
                debug_assert!(lo <= hi, "uniform latency bounds inverted");
                Span::from_micros(rng.gen_range(lo.as_micros()..=hi.as_micros()))
            }
        }
    }

    /// The largest latency this model can produce.
    #[must_use]
    pub fn max(&self) -> Span {
        match *self {
            LatencyModel::Fixed(s) => s,
            LatencyModel::Uniform { hi, .. } => hi,
        }
    }
}

impl Default for LatencyModel {
    fn default() -> LatencyModel {
        LatencyModel::Fixed(Span::from_millis(1))
    }
}

/// What happens to messages that would cross a partition cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PartitionMode {
    /// Crossing messages are dropped — models a long-lived partition (or a
    /// datagram transport). This is the behaviour of the paper's scenarios:
    /// "a network partition disconnects Pk from Pi … consequently Pi and Pj
    /// do not receive m1".
    #[default]
    Loss,
    /// Crossing messages are parked and released, in order, when the
    /// partition heals — models transport-level retransmission across a
    /// transient partition.
    Delay,
}

/// A partition of the node population into disjoint connectivity blocks.
///
/// Nodes in different blocks cannot exchange messages. Nodes not mentioned
/// in any block form one implicit residual block together.
///
/// # Examples
///
/// ```
/// use newtop_sim::PartitionSpec;
/// use newtop_types::ProcessId;
/// let spec = PartitionSpec::split([ProcessId(1), ProcessId(2)]);
/// assert!(!spec.connected(ProcessId(1), ProcessId(3)));
/// assert!(spec.connected(ProcessId(1), ProcessId(2)));
/// assert!(spec.connected(ProcessId(3), ProcessId(4)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartitionSpec {
    blocks: Vec<BTreeSet<ProcessId>>,
}

impl PartitionSpec {
    /// No partition: everyone is connected.
    #[must_use]
    pub fn connected_all() -> PartitionSpec {
        PartitionSpec { blocks: Vec::new() }
    }

    /// Splits the given nodes away from everyone else (two blocks: `inside`
    /// and the residual rest).
    pub fn split<I: IntoIterator<Item = ProcessId>>(inside: I) -> PartitionSpec {
        PartitionSpec {
            blocks: vec![inside.into_iter().collect()],
        }
    }

    /// An explicit multi-block partition. Nodes absent from every block form
    /// one residual block.
    #[must_use]
    pub fn blocks(blocks: Vec<BTreeSet<ProcessId>>) -> PartitionSpec {
        PartitionSpec { blocks }
    }

    /// The listed blocks, in the order given; the residual block is
    /// implicit.
    #[must_use]
    pub fn listed_blocks(&self) -> &[BTreeSet<ProcessId>] {
        &self.blocks
    }

    /// The index of the block containing `p`, or `None` for the implicit
    /// residual block. The engine caches this per node so the per-send
    /// connectivity test is one integer compare.
    #[must_use]
    pub fn block_of(&self, p: ProcessId) -> Option<usize> {
        self.blocks.iter().position(|b| b.contains(&p))
    }

    /// Whether `a` and `b` can currently exchange messages.
    #[must_use]
    pub fn connected(&self, a: ProcessId, b: ProcessId) -> bool {
        self.block_of(a) == self.block_of(b)
    }

    /// Whether this spec partitions anything at all.
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// Network configuration for a [`crate::Sim`].
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// RNG seed; equal seeds replay equal histories.
    pub seed: u64,
    /// Link latency distribution (applies to every ordered pair).
    pub latency: LatencyModel,
    /// Local cost of handing one message to the transport. Consecutive
    /// sends from one event leave the node this far apart, which is what
    /// lets a crash sever a multicast between destinations (Example 1).
    pub send_overhead: Span,
}

impl NetConfig {
    /// A configuration with the given seed, 1 ms fixed latency and 5 µs
    /// send overhead.
    #[must_use]
    pub fn new(seed: u64) -> NetConfig {
        NetConfig {
            seed,
            latency: LatencyModel::default(),
            send_overhead: Span::from_micros(5),
        }
    }

    /// Sets the latency model.
    #[must_use]
    pub fn with_latency(mut self, latency: LatencyModel) -> NetConfig {
        self.latency = latency;
        self
    }

    /// Sets the per-send local overhead.
    #[must_use]
    pub fn with_send_overhead(mut self, overhead: Span) -> NetConfig {
        self.send_overhead = overhead;
        self
    }

    /// Checks the configuration's invariants.
    ///
    /// # Errors
    ///
    /// [`ConfigError::LatencyBoundsInverted`] for an inverted uniform
    /// latency model.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.latency.validate()
    }
}

/// Counters the simulator maintains while running.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the transport.
    pub sent: u64,
    /// Messages delivered to a destination node.
    pub delivered: u64,
    /// Messages lost because the sender crashed before they departed.
    pub dropped_crash_src: u64,
    /// Messages lost because the destination had crashed.
    pub dropped_crash_dst: u64,
    /// Messages lost to a loss-mode partition.
    pub dropped_partition: u64,
    /// Messages currently (or cumulatively) parked by a delay-mode
    /// partition.
    pub parked: u64,
    /// Total bytes handed to the transport, when a sizer is installed.
    pub bytes_sent: u64,
    /// Transfers currently in flight through WAN pipes.
    pub wan_inflight: u64,
    /// Peak of `wan_inflight` over the run.
    pub wan_inflight_peak: u64,
    /// Bytes currently queued or in flight through WAN pipes (backlog).
    pub wan_backlog_bytes: u64,
    /// Peak of `wan_backlog_bytes` over the run.
    pub wan_backlog_peak_bytes: u64,
    /// Bytes that completed their uplink stage — the goodput a capped
    /// uplink actually carried (the e04 plateau metric).
    pub wan_uplink_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_latency_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel::Fixed(Span::from_millis(2));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), Span::from_millis(2));
        }
        assert_eq!(m.max(), Span::from_millis(2));
    }

    #[test]
    fn uniform_latency_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let lo = Span::from_micros(100);
        let hi = Span::from_micros(500);
        let m = LatencyModel::Uniform { lo, hi };
        for _ in 0..1000 {
            let s = m.sample(&mut rng);
            assert!(s >= lo && s <= hi);
        }
        assert_eq!(m.max(), hi);
    }

    #[test]
    fn inverted_uniform_bounds_fail_validation_up_front() {
        let bad = LatencyModel::Uniform {
            lo: Span::from_millis(5),
            hi: Span::from_millis(1),
        };
        assert!(bad.validate().is_err());
        assert!(NetConfig::new(7).with_latency(bad).validate().is_err());
        assert!(NetConfig::new(7).validate().is_ok());
        let ok = LatencyModel::Uniform {
            lo: Span::from_millis(1),
            hi: Span::from_millis(1),
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn trivial_partition_connects_everyone() {
        let p = PartitionSpec::connected_all();
        assert!(p.is_trivial());
        assert!(p.connected(ProcessId(1), ProcessId(99)));
    }

    #[test]
    fn split_partition_separates_inside_from_rest() {
        let p = PartitionSpec::split([ProcessId(1), ProcessId(2)]);
        assert!(p.connected(ProcessId(1), ProcessId(2)));
        assert!(p.connected(ProcessId(3), ProcessId(7)));
        assert!(!p.connected(ProcessId(2), ProcessId(3)));
    }

    #[test]
    fn multi_block_partition() {
        let p = PartitionSpec::blocks(vec![
            [ProcessId(1)].into(),
            [ProcessId(2), ProcessId(3)].into(),
        ]);
        assert!(!p.connected(ProcessId(1), ProcessId(2)));
        assert!(p.connected(ProcessId(2), ProcessId(3)));
        assert!(!p.connected(ProcessId(3), ProcessId(4)));
        assert!(p.connected(ProcessId(4), ProcessId(5)));
    }

    #[test]
    fn self_connectivity_always_holds() {
        let p = PartitionSpec::split([ProcessId(1)]);
        assert!(p.connected(ProcessId(1), ProcessId(1)));
        assert!(p.connected(ProcessId(2), ProcessId(2)));
    }
}

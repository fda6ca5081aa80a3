//! Versioned partition control.
//!
//! Connectivity is decided for every frame, so it must not cost a lock
//! acquisition or an O(blocks × members) scan on the hottest path in the
//! host. Partition state is an immutable [`Snapshot`] behind an atomic
//! version counter instead: shards keep a cached
//! `Arc<Snapshot>` plus each local node's resolved block id and re-read
//! the shared state only when the version moves — the per-frame fast path
//! is one relaxed atomic load (version check, amortised over a batch) and
//! a binary search over the destinations actually named by a cut (zero
//! work in the common unpartitioned case).

use newtop_types::ProcessId;
use parking_lot::RwLock;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Block id for processes not named by any block of the current cut.
///
/// Matches the seed semantics: unnamed processes form one implicit
/// residual block — connected to each other, severed from every named
/// block.
pub(crate) const REST_BLOCK: u32 = u32::MAX;

/// An immutable resolution of one partition cut: process → block id.
#[derive(Debug, Default)]
pub(crate) struct Snapshot {
    /// Sorted `(process, block)` pairs for every process named by a cut;
    /// empty when the network is whole (the common case — lookups then
    /// cost one slice-length check).
    ids: Vec<(ProcessId, u32)>,
}

impl Snapshot {
    fn build(blocks: &[BTreeSet<ProcessId>]) -> Snapshot {
        let mut ids: Vec<(ProcessId, u32)> = Vec::new();
        for (b, block) in blocks.iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            let b = b as u32;
            for &p in block {
                ids.push((p, b));
            }
        }
        ids.sort_unstable();
        // A process named by two blocks keeps its first assignment, like
        // the seed's `position`-based scan.
        ids.dedup_by_key(|(p, _)| *p);
        Snapshot { ids }
    }

    /// The block `p` currently belongs to ([`REST_BLOCK`] if unnamed).
    pub(crate) fn block_of(&self, p: ProcessId) -> u32 {
        if self.ids.is_empty() {
            return REST_BLOCK;
        }
        match self.ids.binary_search_by_key(&p, |&(q, _)| q) {
            Ok(i) => self.ids[i].1,
            Err(_) => REST_BLOCK,
        }
    }

    /// Whether a frame from a sender in `from_block` reaches `to`.
    pub(crate) fn connected(&self, from_block: u32, to: ProcessId) -> bool {
        from_block == self.block_of(to)
    }
}

/// Shared, versioned partition state (one per running cluster).
#[derive(Debug)]
pub(crate) struct PartitionCtl {
    version: AtomicU64,
    snapshot: RwLock<Arc<Snapshot>>,
}

impl PartitionCtl {
    pub(crate) fn new() -> PartitionCtl {
        PartitionCtl {
            version: AtomicU64::new(0),
            snapshot: RwLock::new(Arc::new(Snapshot::default())),
        }
    }

    /// Installs a new cut (empty = whole network) and bumps the version.
    pub(crate) fn set(&self, blocks: &[BTreeSet<ProcessId>]) {
        let snap = Arc::new(Snapshot::build(blocks));
        *self.snapshot.write() = snap;
        // Release: a shard that observes the new version must observe the
        // snapshot written above.
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Current version; shards compare against their cached value.
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The current snapshot (slow path, taken only on a version change).
    pub(crate) fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn whole_network_is_fully_connected() {
        let ctl = PartitionCtl::new();
        let snap = ctl.snapshot();
        assert!(snap.connected(snap.block_of(p(1)), p(2)));
        assert_eq!(snap.block_of(p(7)), REST_BLOCK);
    }

    #[test]
    fn cut_severs_across_blocks_only() {
        let ctl = PartitionCtl::new();
        let v0 = ctl.version();
        ctl.set(&[[p(1), p(2)].into(), [p(3)].into()]);
        assert_ne!(ctl.version(), v0);
        let snap = ctl.snapshot();
        assert!(snap.connected(snap.block_of(p(1)), p(2)));
        assert!(!snap.connected(snap.block_of(p(1)), p(3)));
        assert!(!snap.connected(snap.block_of(p(3)), p(1)));
        // Unnamed processes share the residual block, severed from named
        // ones — seed semantics preserved.
        assert!(snap.connected(snap.block_of(p(8)), p(9)));
        assert!(!snap.connected(snap.block_of(p(8)), p(1)));
    }

    #[test]
    fn heal_restores_connectivity() {
        let ctl = PartitionCtl::new();
        ctl.set(&[[p(1)].into(), [p(2)].into()]);
        let cut = ctl.snapshot();
        assert!(!cut.connected(cut.block_of(p(1)), p(2)));
        ctl.set(&[]);
        let healed = ctl.snapshot();
        assert!(healed.connected(healed.block_of(p(1)), p(2)));
    }
}

//! Shared helpers for the Newtop benchmark suite.
//!
//! These are microbenchmarks: each prints one ns/iter line per row. The
//! system's performance record is the benchmark under `perfbench/`
//! (`python3 perfbench/run.py`). The benches live in `benches/`:
//!
//! * `hot_paths` — the protocol's per-message work: wire encode/decode,
//!   multicast fan-out, logical-clock and receive-vector updates, the
//!   engine's multicast round trip and null receipt, crash-to-view
//!   membership, the simulator's event loop and one chaos seed;
//! * `baseline_protocols` — the comparator protocols' per-message work, so
//!   regressions in the comparison baselines are caught too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bytes::Bytes;
use newtop_types::{Envelope, GroupId, Message, MessageBody, Msn, ProcessId};

/// A representative application multicast frame for codec benches.
#[must_use]
pub fn sample_app_message(c: u64, payload_len: usize) -> Envelope {
    Envelope::from(Message {
        group: GroupId(3),
        sender: ProcessId(7),
        c: Msn(c),
        ldn: Msn(c.saturating_sub(4)),
        body: MessageBody::App(Bytes::from(vec![0xAB; payload_len])),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_message_roundtrips() {
        let env = sample_app_message(1000, 64);
        let mut b = newtop_types::wire::encode(&env);
        assert_eq!(newtop_types::wire::decode(&mut b).unwrap(), env);
    }
}

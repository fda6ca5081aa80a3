//! Error types (C-GOOD-ERR): meaningful, `Error + Send + Sync`, lowercase
//! messages without trailing punctuation.

use crate::{GroupId, Span};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Invalid protocol configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConfigError {
    /// The suspicion timeout Ω must strictly exceed the time-silence
    /// interval ω (§5.2 requires Ω > ω).
    TimeoutsInverted {
        /// Configured time-silence interval.
        omega: Span,
        /// Configured suspicion timeout.
        big_omega: Span,
    },
    /// A flow-control window of zero would block every send forever.
    ZeroWindow,
    /// Degenerate accrual-detector parameters: the sample window must hold
    /// at least 2 samples, the threshold factor must be at least 2 mean
    /// inter-arrivals, and the cap must be at least 1×Ω.
    BadAccrual {
        /// Configured sample-window size.
        window: u8,
        /// Configured threshold factor.
        factor: u16,
        /// Configured timeout cap (multiple of Ω).
        cap: u16,
    },
    /// A uniform latency model with `lo > hi` cannot draw a sample.
    LatencyBoundsInverted {
        /// Configured lower latency bound.
        lo: Span,
        /// Configured upper latency bound.
        hi: Span,
    },
    /// A link or uplink with zero capacity would stall every transfer
    /// forever.
    ZeroCapacity,
    /// A per-mille probability knob outside `0..=1000`.
    BadPermille {
        /// The offending value.
        value: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TimeoutsInverted { omega, big_omega } => write!(
                f,
                "suspicion timeout Ω ({big_omega}) must exceed time-silence interval ω ({omega})"
            ),
            ConfigError::ZeroWindow => write!(f, "flow-control window must be at least one"),
            ConfigError::BadAccrual {
                window,
                factor,
                cap,
            } => write!(
                f,
                "accrual parameters out of range (window {window}, factor {factor}, cap {cap}): \
                 need window >= 2, factor >= 2, cap >= 1"
            ),
            ConfigError::LatencyBoundsInverted { lo, hi } => write!(
                f,
                "uniform latency bounds inverted: lo ({lo}) exceeds hi ({hi})"
            ),
            ConfigError::ZeroCapacity => {
                write!(f, "link capacity must be at least one byte per second")
            }
            ConfigError::BadPermille { value } => {
                write!(f, "per-mille probability {value} exceeds 1000")
            }
        }
    }
}

impl Error for ConfigError {}

/// A send request the protocol engine cannot accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SendError {
    /// The process is not (or no longer) a member of the group.
    NotMember {
        /// The group addressed by the send.
        group: GroupId,
    },
    /// The process has departed the group and may no longer multicast in it.
    Departed {
        /// The group addressed by the send.
        group: GroupId,
    },
    /// The host shed the request at its admission boundary: the shard's
    /// inbox is at capacity. Protocol traffic is never shed — only new
    /// application multicasts — so the caller may simply retry later
    /// (explicit backpressure, not a membership verdict).
    Overloaded {
        /// The group addressed by the send.
        group: GroupId,
    },
    /// The payload is longer than [`crate::wire::MAX_PAYLOAD_LEN`], so its
    /// envelope would not fit one wire frame.
    PayloadTooLarge {
        /// The group addressed by the send.
        group: GroupId,
    },
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::NotMember { group } => {
                write!(f, "process is not a member of {group}")
            }
            SendError::Departed { group } => {
                write!(
                    f,
                    "process has departed {group} and may no longer send in it"
                )
            }
            SendError::Overloaded { group } => {
                write!(
                    f,
                    "host inbox at capacity; multicast in {group} shed (retry later)"
                )
            }
            SendError::PayloadTooLarge { group } => write!(
                f,
                "payload for {group} exceeds {} bytes, the most one wire frame carries",
                crate::wire::MAX_PAYLOAD_LEN
            ),
        }
    }
}

impl Error for SendError {}

/// A malformed wire frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecodeError {
    /// The frame ended before the announced content.
    Truncated,
    /// A variable-length integer exceeded 64 bits.
    VarintOverflow,
    /// An unknown discriminant tag was encountered.
    UnknownTag {
        /// The offending tag byte.
        tag: u8,
        /// What was being decoded.
        context: &'static str,
    },
    /// A decoded integer does not fit its field, such as an id above
    /// `u32::MAX`. Truncating it would alias another id, so the frame is
    /// refused as corrupt.
    OutOfRange {
        /// The decoded value.
        value: u64,
        /// The field it was decoded for.
        field: &'static str,
    },
    /// A length-prefixed frame announced more bytes than its envelope
    /// encoding consumed — the stream is desynchronised or corrupt.
    TrailingBytes {
        /// How many announced bytes were left unconsumed.
        extra: usize,
    },
    /// A length-prefixed frame announced an implausibly large body
    /// (corrupt or adversarial length prefix); the decoder refuses to
    /// buffer it.
    FrameTooLarge {
        /// The announced frame length in bytes.
        len: u64,
    },
    /// A frame announced a zero-length body. Since the batched wire
    /// format carries one *or more* envelopes per frame, an empty frame
    /// is never legitimate — encoders must not emit one and decoders
    /// reject it rather than silently skipping the prefix.
    EmptyFrame,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame truncated before announced content"),
            DecodeError::VarintOverflow => write!(f, "variable-length integer exceeds 64 bits"),
            DecodeError::UnknownTag { tag, context } => {
                write!(f, "unknown tag {tag:#04x} while decoding {context}")
            }
            DecodeError::OutOfRange { value, field } => {
                write!(f, "{field} {value} out of range")
            }
            DecodeError::TrailingBytes { extra } => {
                write!(f, "frame carries {extra} bytes beyond its envelope")
            }
            DecodeError::FrameTooLarge { len } => {
                write!(f, "frame length prefix {len} exceeds the decoder limit")
            }
            DecodeError::EmptyFrame => {
                write!(f, "frame carries no envelopes")
            }
        }
    }
}

impl Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_without_period() {
        let e = ConfigError::ZeroWindow.to_string();
        assert!(e.starts_with("flow"));
        assert!(!e.ends_with('.'));
        let s = SendError::NotMember { group: GroupId(2) }.to_string();
        assert!(s.contains("g2"));
        let d = DecodeError::UnknownTag {
            tag: 0xff,
            context: "body",
        }
        .to_string();
        assert!(d.contains("0xff"));
    }

    #[test]
    fn errors_are_send_sync_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ConfigError>();
        assert_err::<SendError>();
        assert_err::<DecodeError>();
    }
}

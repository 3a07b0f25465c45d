//! The membership/handoff control protocol, carried opaquely inside
//! `sitra-dataspaces` `Request::Control` frames so the data-plane RPC
//! surface never learns about clustering.
//!
//! The codec is **total**: any byte sequence decodes to `Ok` or `Err`,
//! never a panic — the same contract the data-plane codecs honor, and
//! the one `crates/core/tests/wire_fuzz.rs` hammers with truncations and
//! single-byte corruption. It reads through the shared wire cursor and
//! reports its [`WireError`].

use bytes::{BufMut, Bytes, BytesMut};
use sitra_dataspaces::codec::{put_str, Rd, WireError};

/// One cluster member: its identity is its advertised endpoint string
/// (what clients and peers dial).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MemberInfo {
    /// Advertised endpoint, e.g. `tcp://host:7788` or `inproc://name`.
    pub addr: String,
}

/// The membership view: an epoch and the sorted member list. Higher
/// epochs win; every change (join, leave, suspicion eviction) bumps the
/// epoch by one, so anti-entropy needs only a `max` comparison.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterView {
    /// Monotone view generation.
    pub epoch: u64,
    /// Members, sorted by address (the canonical order every
    /// participant derives the ring from).
    pub members: Vec<MemberInfo>,
}

/// A membership/handoff control message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterMsg {
    /// A new member announces itself to a seed; the seed adds it,
    /// bumps the epoch, gossips the new view, and replies with it.
    Join {
        /// The joining member.
        from: MemberInfo,
    },
    /// A member announces a graceful departure (its shards have already
    /// been handed off). Answered with [`ClusterMsg::Ack`].
    Leave {
        /// Address of the departing member.
        addr: String,
    },
    /// Liveness probe. Carries the sender's epoch so a stale peer
    /// learns it is behind: the receiver answers [`ClusterMsg::View`]
    /// when its own epoch is newer, [`ClusterMsg::Ack`] otherwise.
    Heartbeat {
        /// Sender's address.
        from: String,
        /// Sender's view epoch.
        epoch: u64,
    },
    /// A full membership view (join reply, gossip, anti-entropy).
    View {
        /// The view.
        view: ClusterView,
    },
    /// Positive acknowledgement carrying the responder's epoch.
    Ack {
        /// Responder's view epoch.
        epoch: u64,
    },
}

// Tag 1 is retired (an unused view query); it decodes to an error.
const MSG_JOIN: u8 = 2;
const MSG_LEAVE: u8 = 3;
const MSG_HEARTBEAT: u8 = 4;
const MSG_VIEW: u8 = 5;
const MSG_ACK: u8 = 6;

fn put_view(buf: &mut BytesMut, view: &ClusterView) {
    buf.put_u64_le(view.epoch);
    buf.put_u32_le(view.members.len() as u32);
    for m in &view.members {
        put_str(buf, &m.addr);
    }
}

fn read_view(rd: &mut Rd) -> Result<ClusterView, WireError> {
    let epoch = rd.u64("epoch")?;
    // Each member costs at least a 4-byte length prefix.
    let n = rd.count_u32(4, "members.len")?;
    let mut members = Vec::with_capacity(n);
    for _ in 0..n {
        members.push(MemberInfo {
            addr: rd.string("member.addr")?,
        });
    }
    Ok(ClusterView { epoch, members })
}

/// Encode a control message.
pub fn encode_msg(msg: &ClusterMsg) -> Bytes {
    let mut buf = BytesMut::new();
    match msg {
        ClusterMsg::Join { from } => {
            buf.put_u8(MSG_JOIN);
            put_str(&mut buf, &from.addr);
        }
        ClusterMsg::Leave { addr } => {
            buf.put_u8(MSG_LEAVE);
            put_str(&mut buf, addr);
        }
        ClusterMsg::Heartbeat { from, epoch } => {
            buf.put_u8(MSG_HEARTBEAT);
            put_str(&mut buf, from);
            buf.put_u64_le(*epoch);
        }
        ClusterMsg::View { view } => {
            buf.put_u8(MSG_VIEW);
            put_view(&mut buf, view);
        }
        ClusterMsg::Ack { epoch } => {
            buf.put_u8(MSG_ACK);
            buf.put_u64_le(*epoch);
        }
    }
    buf.freeze()
}

/// Decode a control message. Total: never panics on malformed input.
pub fn decode_msg(frame: Bytes) -> Result<ClusterMsg, WireError> {
    let mut rd = Rd::new(frame);
    let msg = match rd.u8("msg.tag")? {
        MSG_JOIN => ClusterMsg::Join {
            from: MemberInfo {
                addr: rd.string("from")?,
            },
        },
        MSG_LEAVE => ClusterMsg::Leave {
            addr: rd.string("addr")?,
        },
        MSG_HEARTBEAT => ClusterMsg::Heartbeat {
            from: rd.string("from")?,
            epoch: rd.u64("epoch")?,
        },
        MSG_VIEW => ClusterMsg::View {
            view: read_view(&mut rd)?,
        },
        MSG_ACK => ClusterMsg::Ack {
            epoch: rd.u64("epoch")?,
        },
        _ => return Err(WireError::Malformed { field: "msg.tag" }),
    };
    rd.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<ClusterMsg> {
        vec![
            ClusterMsg::Join {
                from: MemberInfo {
                    addr: "tcp://10.0.0.2:7788".into(),
                },
            },
            ClusterMsg::Leave {
                addr: "inproc://m1".into(),
            },
            ClusterMsg::Heartbeat {
                from: "inproc://m0".into(),
                epoch: 42,
            },
            ClusterMsg::View {
                view: ClusterView {
                    epoch: 7,
                    members: vec![
                        MemberInfo {
                            addr: "inproc://a".into(),
                        },
                        MemberInfo {
                            addr: "inproc://b".into(),
                        },
                    ],
                },
            },
            ClusterMsg::View {
                view: ClusterView::default(),
            },
            ClusterMsg::Ack { epoch: 0 },
        ]
    }

    #[test]
    fn roundtrip() {
        for msg in samples() {
            assert_eq!(decode_msg(encode_msg(&msg)).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn every_strict_prefix_is_rejected() {
        for msg in samples() {
            let enc = encode_msg(&msg);
            for cut in 0..enc.len() {
                assert!(decode_msg(enc.slice(0..cut)).is_err(), "{msg:?} cut {cut}");
            }
        }
    }

    #[test]
    fn garbage_never_panics() {
        for len in 0..64 {
            let _ = decode_msg(Bytes::from(vec![0xA5u8; len]));
        }
        // A view claiming more members than the frame can hold.
        let mut buf = BytesMut::new();
        buf.put_u8(MSG_VIEW);
        buf.put_u64_le(1);
        buf.put_u32_le(u32::MAX);
        assert!(decode_msg(buf.freeze()).is_err());
    }

    #[test]
    fn the_retired_tag_is_rejected() {
        assert!(decode_msg(Bytes::from_static(&[1])).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut enc = encode_msg(&ClusterMsg::Ack { epoch: 0 }).to_vec();
        enc.push(0);
        assert!(decode_msg(Bytes::from(enc)).is_err());
    }
}

//! MEAD control-message formats.
//!
//! Two transports carry MEAD control traffic:
//!
//! 1. **Piggyback frames** on client/server GIOP connections: 12-byte
//!    `"MEAD"`-magic frames interleaved with GIOP frames (the client-side
//!    interceptor's `read()` filters them out — section 3.1). The only
//!    piggybacked message is the proactive fail-over notice of section 4.3,
//!    sized to match the paper's "100–150 bytes per client-server
//!    connection".
//! 2. **Group multicasts** among MEAD components (Fault-Tolerance Managers
//!    and the Recovery Manager) over the `groupcomm` substrate: replica
//!    address/IOR adverts, proactive fault notifications, active-server
//!    synchronisation, and the address query/reply pair used by the
//!    `NEEDS_ADDRESSING_MODE` scheme.

use giop::{
    frame_writer, CdrReader, CdrWriter, CodecError, Endian, Frame, Ior, HEADER_LEN, MEAD_MAGIC,
};

/// The proactive fail-over notice piggybacked onto GIOP replies
/// (section 4.3): "a MEAD proactive fail-over message containing the
/// address of the next available replica in the group".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailoverNotice {
    /// Host of the next available replica, e.g. `"node2"`.
    pub host: String,
    /// Port of the next available replica.
    pub port: u16,
    /// Member name of the failing replica (diagnostics).
    pub from_member: String,
    /// Padding bringing the frame into the paper's 100–150 byte range.
    pub pad: Vec<u8>,
}

impl FailoverNotice {
    /// Builds a notice padded to ≈128 bytes on the wire.
    pub fn new(host: &str, port: u16, from_member: &str) -> Self {
        let base = 12 + 1 + 8 + host.len() + 2 + 8 + from_member.len() + 4;
        let pad = vec![0u8; 128usize.saturating_sub(base)];
        FailoverNotice {
            host: host.to_string(),
            port,
            from_member: from_member.to_string(),
            pad,
        }
    }

    /// Encodes as a complete `"MEAD"` frame, header and body in one
    /// buffer.
    pub fn encode(&self) -> Vec<u8> {
        // Padded to 128 bytes in all; 160 leaves room for long names.
        let mut w = frame_writer(MEAD_MAGIC, 1, Endian::Big, 160 - HEADER_LEN);
        w.write_u8(1); // kind
        w.write_string(&self.host);
        w.write_u16(self.port);
        w.write_string(&self.from_member);
        w.write_octets(&self.pad);
        w.into_vec()
    }

    /// Decodes from a split [`Frame`] (must carry the MEAD magic).
    ///
    /// # Errors
    ///
    /// [`CodecError`] on foreign or malformed frames.
    pub fn decode(frame: &Frame) -> Result<Self, CodecError> {
        let body = match frame.bytes.split_at_checked(HEADER_LEN) {
            Some((header, body)) if header.starts_with(&MEAD_MAGIC) => body,
            _ => return Err(CodecError::BadMagic),
        };
        let mut r = CdrReader::new(body, Endian::Big);
        let kind = r.read_u8()?;
        if kind != 1 {
            return Err(CodecError::UnknownKind(kind));
        }
        Ok(FailoverNotice {
            host: r.read_string()?,
            port: r.read_u16()?,
            from_member: r.read_string()?,
            pad: r.read_octets()?,
        })
    }
}

/// Control messages multicast among MEAD components over group
/// communication.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroupMsg {
    /// A replica's Fault-Tolerance Manager advertises its transport address
    /// (intercepted from `listen()`, section 4.3).
    AddrAdvert {
        /// Advertising member.
        member: String,
        /// Listen host.
        host: String,
        /// Listen port.
        port: u16,
    },
    /// A replica's Fault-Tolerance Manager advertises an object IOR
    /// (intercepted from the Naming Service registration, section 4.1).
    IorAdvert {
        /// Advertising member.
        member: String,
        /// The advertised object reference.
        ior: Ior,
    },
    /// Proactive fault notification to the Recovery Manager: first
    /// threshold crossed, launch a replacement (section 3.2).
    LaunchRequest {
        /// The member expecting to fail.
        member: String,
    },
    /// The "first replica listed" synchronises the active-server listing
    /// across the group (section 4.3).
    SyncList {
        /// Known (member, host, port) triples.
        entries: Vec<(String, String, u16)>,
    },
    /// Client-side interceptor asking for the current primary's address
    /// after detecting an abrupt failure (section 4.2).
    AddressQuery {
        /// Group the answer should be multicast to.
        reply_group: String,
    },
    /// Answer to [`GroupMsg::AddressQuery`], sent by the first live
    /// replica in the view.
    AddressReply {
        /// Responding member.
        member: String,
        /// Primary's host.
        host: String,
        /// Primary's port.
        port: u16,
    },
    /// Warm-passive state checkpoint from the primary to the backups.
    Checkpoint {
        /// Checkpointing member.
        member: String,
        /// Opaque application state.
        state: Vec<u8>,
    },
    /// Warm-passive Recovery-Manager state, multicast by the RM leader to
    /// its standbys after every launch decision so a takeover continues
    /// the port sequence and pending launches instead of restarting them.
    RmState {
        /// Next fresh replica port the leader will assign.
        next_port: u16,
        /// Outstanding launches as `(slot, expected member name)`.
        pendings: Vec<(u32, String)>,
    },
}

impl GroupMsg {
    fn kind(&self) -> u8 {
        match self {
            GroupMsg::AddrAdvert { .. } => 0,
            GroupMsg::IorAdvert { .. } => 1,
            GroupMsg::LaunchRequest { .. } => 2,
            GroupMsg::SyncList { .. } => 3,
            GroupMsg::AddressQuery { .. } => 4,
            GroupMsg::AddressReply { .. } => 5,
            GroupMsg::Checkpoint { .. } => 6,
            GroupMsg::RmState { .. } => 7,
        }
    }

    /// Encodes for multicast.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = CdrWriter::new(Endian::Big);
        w.write_u8(self.kind());
        match self {
            GroupMsg::AddrAdvert { member, host, port } => {
                w.write_string(member);
                w.write_string(host);
                w.write_u16(*port);
            }
            GroupMsg::IorAdvert { member, ior } => {
                w.write_string(member);
                w.write_octets(&ior.encode());
            }
            GroupMsg::LaunchRequest { member } => w.write_string(member),
            GroupMsg::SyncList { entries } => {
                w.write_u32(giop::wire_len(entries.len()));
                for (m, h, p) in entries {
                    w.write_string(m);
                    w.write_string(h);
                    w.write_u16(*p);
                }
            }
            GroupMsg::AddressQuery { reply_group } => w.write_string(reply_group),
            GroupMsg::AddressReply { member, host, port } => {
                w.write_string(member);
                w.write_string(host);
                w.write_u16(*port);
            }
            GroupMsg::Checkpoint { member, state } => {
                w.write_string(member);
                w.write_octets(state);
            }
            GroupMsg::RmState {
                next_port,
                pendings,
            } => {
                w.write_u16(*next_port);
                w.write_u32(giop::wire_len(pendings.len()));
                for (slot, member) in pendings {
                    w.write_u32(*slot);
                    w.write_string(member);
                }
            }
        }
        w.into_vec()
    }

    /// Decodes a multicast payload.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on malformed input.
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = CdrReader::new(payload, Endian::Big);
        let kind = r.read_u8()?;
        Ok(match kind {
            0 => GroupMsg::AddrAdvert {
                member: r.read_string()?,
                host: r.read_string()?,
                port: r.read_u16()?,
            },
            1 => GroupMsg::IorAdvert {
                member: r.read_string()?,
                ior: Ior::decode(&r.read_octets()?)?,
            },
            2 => GroupMsg::LaunchRequest {
                member: r.read_string()?,
            },
            3 => {
                let n = r.read_u32()?;
                let mut entries = Vec::with_capacity(n.min(1024) as usize);
                for _ in 0..n {
                    let m = r.read_string()?;
                    let h = r.read_string()?;
                    let p = r.read_u16()?;
                    entries.push((m, h, p));
                }
                GroupMsg::SyncList { entries }
            }
            4 => GroupMsg::AddressQuery {
                reply_group: r.read_string()?,
            },
            5 => GroupMsg::AddressReply {
                member: r.read_string()?,
                host: r.read_string()?,
                port: r.read_u16()?,
            },
            6 => GroupMsg::Checkpoint {
                member: r.read_string()?,
                state: r.read_octets()?,
            },
            7 => {
                let next_port = r.read_u16()?;
                let n = r.read_u32()?;
                let mut pendings = Vec::with_capacity(n.min(1024) as usize);
                for _ in 0..n {
                    let slot = r.read_u32()?;
                    let member = r.read_string()?;
                    pendings.push((slot, member));
                }
                GroupMsg::RmState {
                    next_port,
                    pendings,
                }
            }
            other => return Err(CodecError::UnknownKind(other)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giop::{FrameSplitter, ObjectKey};

    #[test]
    fn failover_notice_roundtrips_through_frame_splitter() {
        let notice = FailoverNotice::new("node3", 20001, "replica/7");
        let wire = notice.encode();
        let mut s = FrameSplitter::new();
        s.push(&wire);
        let frame = s.next_frame().unwrap().unwrap();
        assert_eq!(frame.kind, giop::FrameKind::Mead);
        assert_eq!(FailoverNotice::decode(&frame).unwrap(), notice);
    }

    #[test]
    fn failover_notice_is_within_paper_size_range() {
        let wire = FailoverNotice::new("node3", 20001, "replica/7").encode();
        assert!(
            (100..=150).contains(&wire.len()),
            "paper: 100-150 bytes, got {}",
            wire.len()
        );
    }

    #[test]
    fn group_messages_roundtrip() {
        let ior = Ior::singleton("IDL:T:1.0", "node1", 9, ObjectKey::persistent("P", "O"));
        let cases = vec![
            GroupMsg::AddrAdvert {
                member: "replica/1".into(),
                host: "node1".into(),
                port: 20000,
            },
            GroupMsg::IorAdvert {
                member: "replica/1".into(),
                ior,
            },
            GroupMsg::LaunchRequest {
                member: "replica/2".into(),
            },
            GroupMsg::SyncList {
                entries: vec![
                    ("replica/1".into(), "node1".into(), 20000),
                    ("replica/2".into(), "node2".into(), 20001),
                ],
            },
            GroupMsg::AddressQuery {
                reply_group: "clients/17".into(),
            },
            GroupMsg::AddressReply {
                member: "replica/1".into(),
                host: "node1".into(),
                port: 20000,
            },
            GroupMsg::Checkpoint {
                member: "replica/1".into(),
                state: vec![9; 256],
            },
            GroupMsg::RmState {
                next_port: 20007,
                pendings: vec![(0, "replicas/0/44".into()), (2, "replicas/2/51".into())],
            },
        ];
        for msg in cases {
            assert_eq!(GroupMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn truncated_group_messages_error_not_panic() {
        let cases = vec![
            GroupMsg::SyncList {
                entries: vec![("m".into(), "h".into(), 1)],
            },
            GroupMsg::RmState {
                next_port: 20007,
                pendings: vec![(1, "replicas/1/9".into())],
            },
        ];
        for msg in cases {
            let wire = msg.encode();
            for cut in 0..wire.len() {
                assert!(GroupMsg::decode(&wire[..cut]).is_err());
            }
        }
    }

    #[test]
    fn unknown_kind_rejected() {
        assert_eq!(GroupMsg::decode(&[77]), Err(CodecError::UnknownKind(77)));
    }

    #[test]
    fn foreign_magic_is_a_typed_error_not_a_kind_confusion() {
        let frame = Frame {
            kind: giop::FrameKind::Mead,
            bytes: vec![0u8; 16].into(),
        };
        assert_eq!(FailoverNotice::decode(&frame), Err(CodecError::BadMagic));
    }
}

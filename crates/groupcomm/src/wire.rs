//! Wire protocol of the group-communication system.
//!
//! Frames are length-prefixed (u32 big-endian) CDR bodies with a one-octet
//! message discriminant. Three sub-protocols share the enum: client↔daemon
//! commands/deliveries and daemon↔sequencer forwarding/ordering.

use bytes::Bytes;

use giop::{CdrReader, CdrWriter, CodecError, Endian, SegmentBuf};

/// Upper bound on a sane GCS frame, to catch stream desynchronisation.
pub const MAX_FRAME: u32 = 1 << 20;

/// Every message exchanged inside the group-communication system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GcsWire {
    // -- client -> daemon --------------------------------------------------
    /// First message on a client connection: identify the member.
    Attach {
        /// Globally unique member name (e.g. `"replica-1@node2"`).
        member: String,
    },
    /// Join `group` (becoming part of its views).
    Join {
        /// Group name.
        group: String,
    },
    /// Leave `group` voluntarily.
    Leave {
        /// Group name.
        group: String,
    },
    /// Totally-ordered multicast to `group` members (open-group: the sender
    /// need not be a member, as in Spread).
    Multicast {
        /// Destination group.
        group: String,
        /// Opaque payload.
        payload: Vec<u8>,
    },

    // -- daemon -> client --------------------------------------------------
    /// Acknowledges [`GcsWire::Attach`].
    Attached,
    /// A new membership view for `group`, delivered in total order with
    /// respect to multicasts.
    View {
        /// Group name.
        group: String,
        /// Monotonically increasing view number (per group).
        view_id: u64,
        /// Current members, in join order.
        members: Vec<String>,
    },
    /// An ordered multicast delivery.
    Deliver {
        /// Group name.
        group: String,
        /// Sending member's name.
        sender: String,
        /// Opaque payload.
        payload: Vec<u8>,
    },

    // -- daemon -> sequencer (forwarding) -----------------------------------
    /// Identifies a daemon-to-daemon connection.
    Hello {
        /// The connecting daemon's node index.
        node: u32,
    },
    /// Forwarded join request.
    FwdJoin {
        /// Group name.
        group: String,
        /// Joining member.
        member: String,
        /// Node index of the member's daemon (for routing views back).
        daemon: u32,
    },
    /// Forwarded leave (voluntary or crash-detected).
    FwdLeave {
        /// Group name.
        group: String,
        /// Leaving member.
        member: String,
    },
    /// Forwarded multicast.
    FwdMulticast {
        /// Destination group.
        group: String,
        /// Sending member.
        sender: String,
        /// Opaque payload.
        payload: Vec<u8>,
    },

    // -- sequencer -> daemons (ordered stream) ------------------------------
    /// Ordered view installation.
    OrdView {
        /// Global total-order sequence number.
        seq: u64,
        /// Group name.
        group: String,
        /// View number within the group.
        view_id: u64,
        /// Members in join order.
        members: Vec<String>,
    },
    /// Ordered message delivery.
    OrdDeliver {
        /// Global total-order sequence number.
        seq: u64,
        /// Group name.
        group: String,
        /// Sending member.
        sender: String,
        /// Opaque payload.
        payload: Vec<u8>,
    },

    // -- daemon <-> daemon keep-alive ---------------------------------------
    /// Keep-alive token circulated between daemons (models Spread's
    /// steady token traffic; contributes to Figure 5's baseline
    /// bandwidth).
    Heartbeat {
        /// Padding to the configured token size.
        pad: Vec<u8>,
    },
}

impl GcsWire {
    fn kind(&self) -> u8 {
        match self {
            GcsWire::Attach { .. } => 0,
            GcsWire::Join { .. } => 1,
            GcsWire::Leave { .. } => 2,
            GcsWire::Multicast { .. } => 3,
            GcsWire::Attached => 4,
            GcsWire::View { .. } => 5,
            GcsWire::Deliver { .. } => 6,
            GcsWire::Hello { .. } => 7,
            GcsWire::FwdJoin { .. } => 8,
            GcsWire::FwdLeave { .. } => 9,
            GcsWire::FwdMulticast { .. } => 10,
            GcsWire::OrdView { .. } => 11,
            GcsWire::OrdDeliver { .. } => 12,
            GcsWire::Heartbeat { .. } => 13,
        }
    }

    /// Encodes as a length-prefixed frame ready for the wire (prefix and
    /// body in one buffer).
    pub fn encode(&self) -> Bytes {
        // The u32 length prefix is the frame's whole header; `finish`
        // fills it in.
        let mut w = CdrWriter::framed(Endian::Big, &[0; 4], 0, 124);
        w.write_u8(self.kind());
        match self {
            GcsWire::Attach { member } => w.write_string(member),
            GcsWire::Join { group } | GcsWire::Leave { group } => w.write_string(group),
            GcsWire::Multicast { group, payload } => {
                w.write_string(group);
                w.write_octets(payload);
            }
            GcsWire::Attached => {}
            GcsWire::View {
                group,
                view_id,
                members,
            } => {
                w.write_string(group);
                w.write_u64(*view_id);
                w.write_count(members.len());
                for m in members {
                    w.write_string(m);
                }
            }
            GcsWire::Deliver {
                group,
                sender,
                payload,
            } => {
                w.write_string(group);
                w.write_string(sender);
                w.write_octets(payload);
            }
            GcsWire::Hello { node } => w.write_u32(*node),
            GcsWire::FwdJoin {
                group,
                member,
                daemon,
            } => {
                w.write_string(group);
                w.write_string(member);
                w.write_u32(*daemon);
            }
            GcsWire::FwdLeave { group, member } => {
                w.write_string(group);
                w.write_string(member);
            }
            GcsWire::FwdMulticast {
                group,
                sender,
                payload,
            } => {
                w.write_string(group);
                w.write_string(sender);
                w.write_octets(payload);
            }
            GcsWire::OrdView {
                seq,
                group,
                view_id,
                members,
            } => {
                w.write_u64(*seq);
                w.write_string(group);
                w.write_u64(*view_id);
                w.write_count(members.len());
                for m in members {
                    w.write_string(m);
                }
            }
            GcsWire::OrdDeliver {
                seq,
                group,
                sender,
                payload,
            } => {
                w.write_u64(*seq);
                w.write_string(group);
                w.write_string(sender);
                w.write_octets(payload);
            }
            GcsWire::Heartbeat { pad } => w.write_octets(pad),
        }
        w.finish()
    }

    /// Decodes one frame body (without the length prefix).
    ///
    /// # Errors
    ///
    /// [`CodecError`] on malformed input.
    pub fn decode(body: &[u8]) -> Result<Self, CodecError> {
        let mut r = CdrReader::new(body, Endian::Big);
        let kind = r.read_u8()?;
        Ok(match kind {
            0 => GcsWire::Attach {
                member: r.read_string()?,
            },
            1 => GcsWire::Join {
                group: r.read_string()?,
            },
            2 => GcsWire::Leave {
                group: r.read_string()?,
            },
            3 => GcsWire::Multicast {
                group: r.read_string()?,
                payload: r.read_octets()?,
            },
            4 => GcsWire::Attached,
            5 => {
                let group = r.read_string()?;
                let view_id = r.read_u64()?;
                // A member name is at least a length and its NUL.
                let n = r.read_count(5)?;
                let mut members = Vec::with_capacity(r.room_for::<String>(n));
                for _ in 0..n {
                    members.push(r.read_string()?);
                }
                GcsWire::View {
                    group,
                    view_id,
                    members,
                }
            }
            6 => GcsWire::Deliver {
                group: r.read_string()?,
                sender: r.read_string()?,
                payload: r.read_octets()?,
            },
            7 => GcsWire::Hello {
                node: r.read_u32()?,
            },
            8 => GcsWire::FwdJoin {
                group: r.read_string()?,
                member: r.read_string()?,
                daemon: r.read_u32()?,
            },
            9 => GcsWire::FwdLeave {
                group: r.read_string()?,
                member: r.read_string()?,
            },
            10 => GcsWire::FwdMulticast {
                group: r.read_string()?,
                sender: r.read_string()?,
                payload: r.read_octets()?,
            },
            11 => {
                let seq = r.read_u64()?;
                let group = r.read_string()?;
                let view_id = r.read_u64()?;
                // A member name is at least a length and its NUL.
                let n = r.read_count(5)?;
                let mut members = Vec::with_capacity(r.room_for::<String>(n));
                for _ in 0..n {
                    members.push(r.read_string()?);
                }
                GcsWire::OrdView {
                    seq,
                    group,
                    view_id,
                    members,
                }
            }
            12 => GcsWire::OrdDeliver {
                seq: r.read_u64()?,
                group: r.read_string()?,
                sender: r.read_string()?,
                payload: r.read_octets()?,
            },
            13 => GcsWire::Heartbeat {
                pad: r.read_octets()?,
            },
            other => return Err(CodecError::UnknownKind(other)),
        })
    }
}

/// Incremental splitter for length-prefixed GCS frames. A message that
/// arrived inside one segment is decoded in place, without copying the
/// segment (see [`SegmentBuf`]).
#[derive(Clone, Debug, Default)]
pub struct GcsSplitter {
    buf: SegmentBuf,
}

impl GcsSplitter {
    /// Creates an empty splitter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a received segment, taking over its buffer.
    pub fn push_bytes(&mut self, segment: Bytes) {
        self.buf.push(segment);
    }

    /// Appends a copy of received bytes, for callers that hold only a
    /// slice.
    pub fn push(&mut self, data: &[u8]) {
        self.push_bytes(Bytes::copy_from_slice(data));
    }

    /// Extracts the next complete message, if buffered.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a corrupt frame; [`CodecError::Oversize`] as soon
    /// as a prefix declares more than [`MAX_FRAME`] bytes, so a hostile
    /// length is never waited (and buffered) for.
    pub fn next_message(&mut self) -> Result<Option<GcsWire>, CodecError> {
        let Some(&[a, b, c, d]) = self.buf.peek().first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes([a, b, c, d]);
        if len > MAX_FRAME {
            return Err(CodecError::Oversize(len));
        }
        let Some(frame) = self.buf.split_to((len as usize).saturating_add(4)) else {
            return Ok(None);
        };
        GcsWire::decode(frame.get(4..).unwrap_or(&[])).map(Some)
    }

    /// Drains all complete messages currently buffered.
    ///
    /// # Errors
    ///
    /// Propagates the first decode error.
    pub fn drain(&mut self) -> Result<Vec<GcsWire>, CodecError> {
        let mut out = Vec::new();
        while let Some(m) = self.next_message()? {
            out.push(m);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<GcsWire> {
        vec![
            GcsWire::Attach {
                member: "replica-1".into(),
            },
            GcsWire::Join {
                group: "servers".into(),
            },
            GcsWire::Leave {
                group: "servers".into(),
            },
            GcsWire::Multicast {
                group: "servers".into(),
                payload: vec![1, 2, 3],
            },
            GcsWire::Attached,
            GcsWire::View {
                group: "servers".into(),
                view_id: 9,
                members: vec!["a".into(), "b".into()],
            },
            GcsWire::Deliver {
                group: "servers".into(),
                sender: "a".into(),
                payload: vec![7; 40],
            },
            GcsWire::Hello { node: 3 },
            GcsWire::FwdJoin {
                group: "g".into(),
                member: "m".into(),
                daemon: 2,
            },
            GcsWire::FwdLeave {
                group: "g".into(),
                member: "m".into(),
            },
            GcsWire::FwdMulticast {
                group: "g".into(),
                sender: "m".into(),
                payload: vec![],
            },
            GcsWire::OrdView {
                seq: 44,
                group: "g".into(),
                view_id: 2,
                members: vec![],
            },
            GcsWire::OrdDeliver {
                seq: 45,
                group: "g".into(),
                sender: "m".into(),
                payload: vec![0xFF],
            },
            GcsWire::Heartbeat { pad: vec![0; 48] },
        ]
    }

    #[test]
    fn all_variants_roundtrip() {
        for msg in samples() {
            let framed = msg.encode();
            let mut s = GcsSplitter::new();
            s.push(&framed);
            assert_eq!(s.next_message().unwrap().unwrap(), msg);
        }
    }

    #[test]
    fn splitter_handles_fragmentation() {
        let mut stream = Vec::new();
        for m in samples() {
            stream.extend_from_slice(&m.encode());
        }
        let mut s = GcsSplitter::new();
        let mut got = Vec::new();
        for chunk in stream.chunks(3) {
            s.push(chunk);
            while let Some(m) = s.next_message().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, samples());
    }

    #[test]
    fn oversize_frame_is_rejected() {
        let mut s = GcsSplitter::new();
        s.push(&(MAX_FRAME + 1).to_be_bytes());
        assert!(matches!(s.next_message(), Err(CodecError::Oversize(_))));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert_eq!(GcsWire::decode(&[200]), Err(CodecError::UnknownKind(200)));
    }
}

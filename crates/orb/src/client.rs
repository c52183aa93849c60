//! The client-side ORB.
//!
//! [`ClientOrb`] is a library embedded in a client process. It owns the
//! client's GIOP connections, assigns request ids, and implements the
//! *native CORBA retransmission semantics* the paper's schemes rely on:
//!
//! * on a `LOCATION_FORWARD` reply it transparently re-sends the request to
//!   the IOR in the reply body, without notifying the application
//!   (section 4.1: "the client ORB ... handles the retransmission through
//!   native CORBA mechanisms");
//! * on a `NEEDS_ADDRESSING_MODE` reply it re-sends the request **on the
//!   same connection** — which a client-side interceptor may meanwhile have
//!   redirected to a different replica (section 4.2);
//! * transport EOF with requests outstanding surfaces as a `COMM_FAILURE`
//!   system exception, and connection refusal (a stale reference) as
//!   `TRANSIENT`, matching the failure taxonomy of section 5.2.1.

use std::collections::BTreeMap;

use giop::{
    encode_request, Endian, FrameKind, FrameSplitter, Ior, MessageView, ObjectKey, ReplyBodyView,
    ReplyView,
};
use obs::{EventKind, Phase};
use simnet::{Addr, ConnId, Event, NodeId, Port, SimDuration, SysApi};

use crate::exceptions::{Completed, SystemException};

/// Maps a simulated node to the host string used in IORs.
pub fn host_of(node: NodeId) -> String {
    format!("node{}", node.index())
}

/// Parses an IOR host string (`"node<N>"`) back to a node.
pub fn node_of(host: &str) -> Option<NodeId> {
    host.strip_prefix("node")?
        .parse::<u32>()
        .ok()
        .map(NodeId::from_index)
}

/// Resolves an IOR's primary profile to a transport address.
pub fn addr_of(ior: &Ior) -> Option<Addr> {
    let p = ior.primary_profile()?;
    Some(Addr::new(node_of(&p.host)?, Port(p.port)))
}

/// Marshalling cost per outgoing request; with the other ORB charges
/// calibrated to the paper's fault-free RTT on its 850 MHz testbed
/// (DESIGN §7).
const REQUEST_CPU: SimDuration = SimDuration::from_micros(20);
/// Unmarshalling cost per incoming reply.
const REPLY_CPU: SimDuration = SimDuration::from_micros(20);
/// Cost for a `COMM_FAILURE` to register at the client (the paper
/// measures ~1.1–1.8 ms on its testbed).
pub const COMM_FAILURE_CPU: SimDuration = SimDuration::from_micros(1100);
/// Cost to process a `TRANSIENT` exception.
const TRANSIENT_CPU: SimDuration = SimDuration::from_micros(1000);
/// Cost of establishing a *new* GIOP connection at the ORB level
/// (TCP setup plus object-reference binding). TAO on the paper's
/// 850 MHz hosts pays several milliseconds here — it dominates the
/// reactive fail-over times of Table 1 (e.g. the 7.9 ms fail-over to a
/// cached reference) and is precisely the cost MEAD's interceptor-level
/// `dup2()` redirect avoids (section 4.3).
pub const CONNECT_CPU: SimDuration = SimDuration::from_micros(5300);
/// Maximum `LOCATION_FORWARD` hops before giving up with `TRANSIENT`.
pub const FORWARD_HOP_LIMIT: u32 = 8;

/// Something the ORB hands up to the application (or records for metrics).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OrbUpshot {
    /// A normal reply arrived.
    Reply {
        /// The invocation this answers.
        request_id: u32,
        /// Operation name (bookkeeping convenience).
        operation: String,
        /// CDR-encoded results.
        payload: Vec<u8>,
    },
    /// A system exception reached the application.
    Exception {
        /// The failed invocation.
        request_id: u32,
        /// Operation name.
        operation: String,
        /// The exception.
        ex: SystemException,
    },
    /// The ORB transparently followed a `LOCATION_FORWARD` (invisible to
    /// the application; exposed for measurement).
    Forwarded {
        /// The redirected invocation.
        request_id: u32,
        /// Where it was re-sent.
        to: Addr,
    },
    /// The ORB re-sent the request after `NEEDS_ADDRESSING_MODE`
    /// (invisible to the application; exposed for measurement).
    Resent {
        /// The re-sent invocation.
        request_id: u32,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnPhase {
    Connecting,
    Ready,
    /// The peer closed while the connection was idle. A real ORB only
    /// discovers this when it next uses the socket, at which point the
    /// request fails with `COMM_FAILURE` — preserving the paper's 1:1
    /// correspondence between server crashes and `COMM_FAILURE`s
    /// (section 5.2.1).
    Dead,
}

#[derive(Clone, Debug)]
struct ConnInfo {
    addr: Addr,
    phase: ConnPhase,
    splitter: FrameSplitter,
    /// Requests awaiting connection establishment.
    queued: Vec<u32>,
}

#[derive(Clone, Debug)]
struct Pending {
    operation: String,
    body: Vec<u8>,
    object_key: ObjectKey,
    /// Connection currently carrying this request (None until dispatched).
    conn: Option<ConnId>,
    forward_hops: u32,
}

/// The client-side ORB: connection management, request correlation,
/// forwarding semantics.
#[derive(Clone, Debug, Default)]
pub struct ClientOrb {
    /// Boxed: an ORB holds one or two connections, and a B-tree leaf
    /// reserves room for eleven values inline.
    conns: BTreeMap<ConnId, Box<ConnInfo>>,
    by_addr: BTreeMap<Addr, ConnId>,
    /// In-flight requests in request-id order — at most a few, inserted
    /// and removed on every invocation, so a vector that keeps its
    /// capacity instead of a map that allocates a node for the first.
    pending: Vec<(u32, Pending)>,
    /// The id of the latest invocation; the first one gets 1.
    last_request_id: u32,
}

impl ClientOrb {
    /// Creates an ORB with no connections and nothing in flight.
    pub fn new() -> Self {
        Self::default()
    }

    fn pending_index(&self, request_id: u32) -> Option<usize> {
        self.pending
            .binary_search_by_key(&request_id, |(rid, _)| *rid)
            .ok()
    }

    fn pending_get(&self, request_id: u32) -> Option<&Pending> {
        let i = self.pending_index(request_id)?;
        Some(&self.pending[i].1)
    }

    fn pending_get_mut(&mut self, request_id: u32) -> Option<&mut Pending> {
        let i = self.pending_index(request_id)?;
        Some(&mut self.pending[i].1)
    }

    fn pending_remove(&mut self, request_id: u32) -> Option<Pending> {
        let i = self.pending_index(request_id)?;
        Some(self.pending.remove(i).1)
    }

    /// Number of invocations in flight.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Invokes `operation` on the object named by `ior`, returning the
    /// request id the eventual [`OrbUpshot`] will carry.
    ///
    /// The connection to the target is created on first use and cached, as
    /// a real ORB does.
    ///
    /// # Errors
    ///
    /// [`SystemException::ObjectNotExist`] if the IOR carries no usable
    /// IIOP profile.
    pub fn invoke(
        &mut self,
        sys: &mut dyn SysApi,
        ior: &Ior,
        operation: &str,
        body: &[u8],
    ) -> Result<u32, SystemException> {
        let (addr, key) = match (addr_of(ior), ior.primary_profile()) {
            (Some(a), Some(p)) => (a, p.object_key.clone()),
            _ => {
                return Err(SystemException::ObjectNotExist {
                    completed: Completed::No,
                })
            }
        };
        self.last_request_id += 1;
        let request_id = self.last_request_id;
        // Request ids only grow, so pushing keeps `pending` sorted. One
        // more slot at a time: a client rarely has two requests out.
        self.pending.reserve_exact(1);
        self.pending.push((
            request_id,
            Pending {
                operation: operation.to_string(),
                body: body.to_vec(),
                object_key: key,
                conn: None,
                forward_hops: 0,
            },
        ));
        if let Err(ex) = self.dispatch(sys, request_id, addr) {
            self.pending_remove(request_id);
            return Err(ex);
        }
        Ok(request_id)
    }

    /// Routes (or re-routes) a pending request to `addr`.
    ///
    /// # Errors
    ///
    /// `COMM_FAILURE` when the cached connection to `addr` turns out to
    /// have died while idle (discovered at use, as with a real socket).
    fn dispatch(
        &mut self,
        sys: &mut dyn SysApi,
        request_id: u32,
        addr: Addr,
    ) -> Result<(), SystemException> {
        if let Some(&conn) = self.by_addr.get(&addr) {
            if self.conns.get(&conn).map(|i| i.phase) == Some(ConnPhase::Dead) {
                self.by_addr.remove(&addr);
                self.conns.remove(&conn);
                sys.close(conn);
                sys.charge_cpu(COMM_FAILURE_CPU);
                sys.count("orb.exception.comm_failure", 1);
                return Err(SystemException::CommFailure {
                    completed: Completed::Maybe,
                });
            }
        }
        let conn = match self.by_addr.get(&addr) {
            Some(&c) => c,
            None => {
                sys.count("orb.connections_opened", 1);
                let c = sys.connect(addr);
                self.by_addr.insert(addr, c);
                self.conns.insert(
                    c,
                    Box::new(ConnInfo {
                        addr,
                        phase: ConnPhase::Connecting,
                        splitter: FrameSplitter::new(),
                        queued: Vec::new(),
                    }),
                );
                c
            }
        };
        if let Some(p) = self.pending_get_mut(request_id) {
            p.conn = Some(conn);
        }
        let info = self.conns.get_mut(&conn).expect("conn tracked");
        match info.phase {
            ConnPhase::Ready => self.send_request(sys, request_id, conn),
            ConnPhase::Connecting => info.queued.push(request_id),
            ConnPhase::Dead => unreachable!("dead connections are purged above"),
        }
        Ok(())
    }

    /// Encodes the pending request straight from its one stored copy of
    /// operation, key and body, and hands the buffer to the kernel.
    fn send_request(&mut self, sys: &mut dyn SysApi, request_id: u32, conn: ConnId) {
        let Some(p) = self.pending_get(request_id) else {
            return;
        };
        let wire = encode_request(
            request_id,
            true,
            p.object_key.as_bytes(),
            &p.operation,
            &p.body,
            Endian::Big,
        );
        sys.charge_cpu(REQUEST_CPU);
        if sys.write_bytes(conn, wire).is_err() {
            // Connection died between dispatch and send; the PeerClosed
            // event will raise COMM_FAILURE for this request.
        }
    }

    /// Re-sends a pending request on its current connection (the
    /// `NEEDS_ADDRESSING_MODE` reaction).
    fn resend(&mut self, sys: &mut dyn SysApi, request_id: u32) {
        if let Some(conn) = self.pending_get(request_id).and_then(|p| p.conn) {
            self.send_request(sys, request_id, conn);
        }
    }

    /// Offers an event to the ORB. Returns `None` if the event does not
    /// concern any ORB connection; otherwise the produced upshots (possibly
    /// empty).
    pub fn handle_event(&mut self, sys: &mut dyn SysApi, event: &Event) -> Option<Vec<OrbUpshot>> {
        match event {
            Event::ConnEstablished { conn } => {
                let info = self.conns.get_mut(conn)?;
                info.phase = ConnPhase::Ready;
                let queued = std::mem::take(&mut info.queued);
                // ORB-level connection establishment (object binding etc.)
                // is expensive; charged only on success — a refused
                // connect (stale reference) fails fast, as TAO's does.
                sys.charge_cpu(CONNECT_CPU);
                for rid in queued {
                    self.send_request(sys, rid, *conn);
                }
                Some(Vec::new())
            }
            Event::ConnRefused { conn } => {
                let info = self.conns.remove(conn)?;
                self.by_addr.remove(&info.addr);
                let mut out = Vec::new();
                // Stale reference: every queued request fails TRANSIENT.
                for rid in info.queued {
                    if let Some(p) = self.pending_remove(rid) {
                        sys.charge_cpu(TRANSIENT_CPU);
                        sys.count("orb.exception.transient", 1);
                        out.push(OrbUpshot::Exception {
                            request_id: rid,
                            operation: p.operation,
                            ex: SystemException::Transient {
                                completed: Completed::No,
                            },
                        });
                    }
                }
                Some(out)
            }
            Event::DataReadable { conn } => {
                if !self.conns.contains_key(conn) {
                    return None;
                }
                let Ok(read) = sys.read(*conn, usize::MAX) else {
                    return Some(Vec::new());
                };
                let info = self.conns.get_mut(conn).expect("checked above");
                info.splitter.push_bytes(read.data);
                let mut out = Vec::new();
                loop {
                    let frame = match self.conns.get_mut(conn).map(|i| i.splitter.next_frame()) {
                        Some(Ok(Some(f))) => f,
                        Some(Ok(None)) | None => break,
                        Some(Err(_)) => {
                            // Nothing after this point can be framed:
                            // tear the connection down, as for an EOF.
                            sys.count("orb.protocol_error", 1);
                            self.fail_conn(sys, *conn, &mut out);
                            break;
                        }
                    };
                    if frame.kind != FrameKind::Giop {
                        // A MEAD control frame leaked through (no
                        // interceptor present): ignore, as an unmodified
                        // ORB would reject unknown magics.
                        sys.count("orb.alien_frame", 1);
                        continue;
                    }
                    match MessageView::parse(&frame.bytes) {
                        Ok(MessageView::Reply(rep)) => self.on_reply(sys, *conn, rep, &mut out),
                        Ok(MessageView::CloseConnection) => {
                            // Orderly shutdown: treat like EOF for pending.
                            self.fail_conn(sys, *conn, &mut out);
                        }
                        Ok(_) => {
                            sys.count("orb.protocol_error", 1);
                        }
                        Err(_) => {
                            sys.count("orb.protocol_error", 1);
                        }
                    }
                }
                Some(out)
            }
            Event::PeerClosed { conn } => {
                if !self.conns.contains_key(conn) {
                    return None;
                }
                let mut out = Vec::new();
                self.fail_conn(sys, *conn, &mut out);
                Some(out)
            }
            _ => None,
        }
    }

    /// EOF/reset handling: requests outstanding on `conn` surface as
    /// `COMM_FAILURE` immediately (section 5.2.1's 1:1 correspondence); an
    /// idle connection is merely marked dead, to be discovered — also as
    /// `COMM_FAILURE` — when next used.
    fn fail_conn(&mut self, sys: &mut dyn SysApi, conn: ConnId, out: &mut Vec<OrbUpshot>) {
        let failed: Vec<u32> = self
            .pending
            .iter()
            .filter(|(_, p)| p.conn == Some(conn))
            .map(|(rid, _)| *rid)
            .collect();
        if failed.is_empty() {
            if let Some(info) = self.conns.get_mut(&conn) {
                info.phase = ConnPhase::Dead;
            }
            return;
        }
        if let Some(info) = self.conns.remove(&conn) {
            self.by_addr.remove(&info.addr);
        }
        sys.close(conn);
        for rid in failed {
            let p = self.pending_remove(rid).expect("collected above");
            sys.charge_cpu(COMM_FAILURE_CPU);
            sys.count("orb.exception.comm_failure", 1);
            out.push(OrbUpshot::Exception {
                request_id: rid,
                operation: p.operation,
                ex: SystemException::CommFailure {
                    completed: Completed::Maybe,
                },
            });
        }
    }

    fn on_reply(
        &mut self,
        sys: &mut dyn SysApi,
        _conn: ConnId,
        rep: ReplyView<'_>,
        out: &mut Vec<OrbUpshot>,
    ) {
        let rid = rep.request_id;
        if self.pending_index(rid).is_none() {
            sys.count("orb.orphan_reply", 1);
            return;
        }
        match rep.body {
            ReplyBodyView::NoException(payload) => {
                let p = self.pending_remove(rid).expect("checked");
                sys.charge_cpu(REPLY_CPU);
                if p.forward_hops > 0 {
                    // This reply came from the forwarded-to replica: the
                    // end of a LOCATION_FORWARD fail-over window.
                    sys.emit(EventKind::Phase(Phase::FirstReplyAfterFailover));
                }
                out.push(OrbUpshot::Reply {
                    request_id: rid,
                    operation: p.operation,
                    payload: payload.to_vec(),
                });
            }
            ReplyBodyView::UserException(repo_id) => {
                let p = self.pending_remove(rid).expect("checked");
                sys.charge_cpu(REPLY_CPU);
                out.push(OrbUpshot::Exception {
                    request_id: rid,
                    operation: p.operation,
                    ex: SystemException::Other {
                        repo_id: repo_id.to_owned(),
                        completed: Completed::Yes,
                    },
                });
            }
            ReplyBodyView::SystemException {
                repo_id, completed, ..
            } => {
                let p = self.pending_remove(rid).expect("checked");
                sys.charge_cpu(REPLY_CPU);
                out.push(OrbUpshot::Exception {
                    request_id: rid,
                    operation: p.operation,
                    ex: SystemException::from_wire(repo_id, completed),
                });
            }
            ReplyBodyView::LocationForward(ior) => {
                // Transparent retransmission to the forwarded location.
                let hops = {
                    let p = self.pending_get_mut(rid).expect("checked");
                    p.forward_hops += 1;
                    p.forward_hops
                };
                if hops > FORWARD_HOP_LIMIT {
                    let p = self.pending_remove(rid).expect("checked");
                    sys.count("orb.forward_loop", 1);
                    out.push(OrbUpshot::Exception {
                        request_id: rid,
                        operation: p.operation,
                        ex: SystemException::Transient {
                            completed: Completed::No,
                        },
                    });
                    return;
                }
                match (addr_of(&ior), ior.primary_profile()) {
                    (Some(addr), Some(profile)) => {
                        if let Some(p) = self.pending_get_mut(rid) {
                            p.object_key = profile.object_key.clone();
                        }
                        sys.count("orb.forwarded", 1);
                        match self.dispatch(sys, rid, addr) {
                            Ok(()) => {
                                // The retransmission is on its way to the
                                // replacement replica — the ORB-native
                                // equivalent of a client redirect.
                                sys.emit(EventKind::Phase(Phase::ClientRedirect));
                                out.push(OrbUpshot::Forwarded {
                                    request_id: rid,
                                    to: addr,
                                });
                            }
                            Err(ex) => {
                                let p = self.pending_remove(rid).expect("checked");
                                out.push(OrbUpshot::Exception {
                                    request_id: rid,
                                    operation: p.operation,
                                    ex,
                                });
                            }
                        }
                    }
                    _ => {
                        let p = self.pending_remove(rid).expect("checked");
                        out.push(OrbUpshot::Exception {
                            request_id: rid,
                            operation: p.operation,
                            ex: SystemException::ObjectNotExist {
                                completed: Completed::No,
                            },
                        });
                    }
                }
            }
            ReplyBodyView::NeedsAddressingMode(_) => {
                // Re-send the request over the (possibly redirected)
                // connection.
                sys.count("orb.needs_addressing_resend", 1);
                self.resend(sys, rid);
                out.push(OrbUpshot::Resent { request_id: rid });
            }
        }
    }

    /// Drops the cached connection to `addr` (the application-level cache
    /// schemes use this when they decide a replica is gone).
    pub fn forget_connection(&mut self, sys: &mut dyn SysApi, addr: Addr) {
        if let Some(conn) = self.by_addr.remove(&addr) {
            self.conns.remove(&conn);
            sys.close(conn);
        }
    }
}

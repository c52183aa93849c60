//! The group-communication daemon (one per node, like a Spread daemon).
//!
//! Daemons accept local client connections on the well-known port
//! [`GCS_PORT`] and relay all operations to a fixed *sequencer* daemon that
//! assigns a single global sequence number to every membership change and
//! multicast, yielding totally-ordered delivery with virtual-synchrony-style
//! views.
//!
//! **Substitution note.** Spread uses a token-ring/hop protocol among
//! daemons; we use a star around a sequencer. What the paper relies on —
//! total order of messages and views, crash-triggered membership
//! notifications, and measurable inter-node daemon traffic (Figure 5) — is
//! preserved. Daemons themselves are assumed reliable, as in the paper
//! (only application replicas are fault-injected).
//!
//! Crash detection: when a client connection delivers EOF, the daemon
//! forwards a leave for every group the member had joined; the resulting
//! view change is exactly the "membership-change notification from Spread"
//! the MEAD Recovery Manager reacts to.

use std::collections::BTreeMap;

use obs::EventKind;
use rand::Rng;
use simnet::{Addr, ConnId, Event, ListenerId, Port, Process, SimDuration, SysApi};

use crate::names::NameSet;
use crate::wire::{GcsSplitter, GcsWire};

/// The well-known daemon port (Spread's default).
pub const GCS_PORT: Port = Port(4803);

/// Accounting tag for inter-daemon (sequencer star) traffic — the paper's
/// Figure 5 "bandwidth between the servers".
pub const MESH_TAG: &str = "gcs.mesh";

/// Tuning knobs for the daemon.
#[derive(Clone, Debug)]
pub struct GcsConfig {
    /// CPU charged by the sequencer to order one operation.
    pub ordering_cpu: SimDuration,
    /// CPU charged by a daemon to route one delivery.
    pub routing_cpu: SimDuration,
    /// Retry interval while connecting to the sequencer at boot.
    pub retry_interval: SimDuration,
    /// Bounds of the uniform *membership agreement delay*: how long the
    /// sequencer deliberates before installing a view after a join or
    /// leave. Models Spread's token-ring membership consensus, which takes
    /// several milliseconds — the delay behind the paper's observation
    /// that a `NEEDS_ADDRESSING` query can arrive "before the
    /// group-membership message indicating the replica's crash had been
    /// received" (section 5.2.1). Ordinary multicasts are not delayed.
    pub membership_delay_min: SimDuration,
    /// Upper bound of the agreement delay.
    pub membership_delay_max: SimDuration,
    /// Interval of the daemon-to-daemon keep-alive token (models Spread's
    /// steady token-circulation traffic; part of the Figure 5 baseline
    /// bandwidth). Zero disables heartbeats.
    pub heartbeat_interval: SimDuration,
    /// Size of one heartbeat token on the wire.
    pub heartbeat_bytes: usize,
}

impl Default for GcsConfig {
    fn default() -> Self {
        GcsConfig {
            ordering_cpu: SimDuration::from_micros(15),
            routing_cpu: SimDuration::from_micros(8),
            retry_interval: SimDuration::from_millis(10),
            membership_delay_min: SimDuration::ZERO,
            membership_delay_max: SimDuration::from_micros(435),
            heartbeat_interval: SimDuration::from_millis(150),
            heartbeat_bytes: 64,
        }
    }
}

#[derive(Clone, Debug)]
enum ConnKind {
    /// Accepted, protocol not yet identified.
    Pending,
    /// A local client (application process) attached as `member`.
    Client { member: String, groups: NameSet },
    /// Another daemon (only ever seen at the sequencer).
    Peer { node: u32 },
}

#[derive(Clone, Debug)]
struct ConnState {
    kind: ConnKind,
    splitter: GcsSplitter,
}

#[derive(Clone, Debug, Default)]
struct GroupState {
    view_id: u64,
    /// Members in join order with their daemon's node index.
    members: Vec<(String, u32)>,
}

/// Sequencer-only state.
#[derive(Clone, Debug, Default)]
struct SequencerState {
    groups: BTreeMap<String, GroupState>,
    /// Daemon node index -> connection carrying the ordered stream.
    peers: BTreeMap<u32, ConnId>,
    global_seq: u64,
}

const TOKEN_RETRY: u64 = 1;
const TOKEN_HEARTBEAT: u64 = 2;
/// Timer-token base for delayed membership operations; the offset indexes
/// into `pending_membership`.
const TOKEN_MEMBERSHIP_BASE: u64 = 1000;

/// The daemon process. Spawn one on every node; pass the address of the
/// sequencer daemon (conventionally the one on the lowest-numbered node).
#[derive(Clone)]
pub struct GcsDaemon {
    cfg: GcsConfig,
    sequencer: Addr,
    listener: Option<ListenerId>,
    conns: BTreeMap<ConnId, ConnState>,
    /// Upstream connection to the sequencer (None when we *are* it).
    up: Option<ConnId>,
    up_ready: bool,
    /// Queued forwards while the upstream connection establishes.
    up_backlog: Vec<GcsWire>,
    /// Local membership per group (intersection of the global view with
    /// locally attached members), for routing deliveries.
    local_groups: BTreeMap<String, NameSet>,
    /// Member name -> client connection, for local delivery.
    local_members: BTreeMap<String, ConnId>,
    seq_state: Option<SequencerState>,
    /// Membership operations deliberating under the agreement delay,
    /// keyed by timer-token offset.
    pending_membership: BTreeMap<u64, GcsWire>,
    next_membership_token: u64,
}

impl GcsDaemon {
    /// Creates a daemon that will coordinate through the daemon at
    /// `sequencer` (possibly itself).
    pub fn new(sequencer: Addr, cfg: GcsConfig) -> Self {
        GcsDaemon {
            cfg,
            sequencer,
            listener: None,
            conns: BTreeMap::new(),
            up: None,
            up_ready: false,
            up_backlog: Vec::new(),
            local_groups: BTreeMap::new(),
            local_members: BTreeMap::new(),
            seq_state: None,
            pending_membership: BTreeMap::new(),
            next_membership_token: 0,
        }
    }

    fn is_sequencer(&self, sys: &dyn SysApi) -> bool {
        self.sequencer.node == sys.my_node() && self.sequencer.port == GCS_PORT
    }

    fn connect_up(&mut self, sys: &mut dyn SysApi) {
        let c = sys.connect(self.sequencer);
        sys.tag_conn(c, MESH_TAG);
        self.up = Some(c);
        self.up_ready = false;
    }

    /// Sends `msg` toward the sequencer: directly into our own sequencing
    /// logic when we are it, otherwise over the upstream connection.
    fn forward(&mut self, sys: &mut dyn SysApi, msg: GcsWire) {
        if self.seq_state.is_some() {
            self.sequence(sys, msg);
        } else if self.up_ready {
            let up = self.up.expect("ready implies connected");
            let _ = sys.write_bytes(up, msg.encode());
        } else {
            self.up_backlog.push(msg);
        }
    }

    /// Entry point for forwarded operations at the sequencer: multicasts
    /// are ordered immediately; membership changes first deliberate for
    /// the agreement delay (see [`GcsConfig`]).
    fn sequence(&mut self, sys: &mut dyn SysApi, msg: GcsWire) {
        if matches!(msg, GcsWire::FwdJoin { .. } | GcsWire::FwdLeave { .. })
            && !self.cfg.membership_delay_max.is_zero()
        {
            let min = self.cfg.membership_delay_min.as_nanos();
            let max = self.cfg.membership_delay_max.as_nanos().max(min);
            let delay = SimDuration::from_nanos(if max > min {
                sys.rng().gen_range(min..=max)
            } else {
                min
            });
            let token = TOKEN_MEMBERSHIP_BASE + self.next_membership_token;
            self.next_membership_token += 1;
            self.pending_membership.insert(token, msg);
            sys.set_timer(delay, token);
            return;
        }
        self.sequence_now(sys, msg);
    }

    /// Sequencer logic: assign a global sequence number and broadcast the
    /// resulting ordered operation to every daemon (including ourselves).
    fn sequence_now(&mut self, sys: &mut dyn SysApi, msg: GcsWire) {
        sys.charge_cpu(self.cfg.ordering_cpu);
        let state = self.seq_state.as_mut().expect("sequencer state");
        // Each arm yields the ordered operation plus the group it targets,
        // so routing below needs no second (wildcard-bearing) match.
        let (ord, group_name) = match msg {
            GcsWire::FwdJoin {
                group,
                member,
                daemon,
            } => {
                let g = state.groups.entry(group.clone()).or_default();
                if g.members.iter().any(|(m, _)| *m == member) {
                    return; // duplicate join: idempotent
                }
                g.members.push((member, daemon));
                g.view_id += 1;
                state.global_seq += 1;
                let ord = GcsWire::OrdView {
                    seq: state.global_seq,
                    group: group.clone(),
                    view_id: g.view_id,
                    members: g.members.iter().map(|(m, _)| m.clone()).collect(),
                };
                (ord, group)
            }
            GcsWire::FwdLeave { group, member } => {
                let Some(g) = state.groups.get_mut(&group) else {
                    return;
                };
                let before = g.members.len();
                g.members.retain(|(m, _)| *m != member);
                if g.members.len() == before {
                    return; // unknown member: idempotent
                }
                g.view_id += 1;
                state.global_seq += 1;
                let ord = GcsWire::OrdView {
                    seq: state.global_seq,
                    group: group.clone(),
                    view_id: g.view_id,
                    members: g.members.iter().map(|(m, _)| m.clone()).collect(),
                };
                (ord, group)
            }
            GcsWire::FwdMulticast {
                group,
                sender,
                payload,
            } => {
                state.global_seq += 1;
                let ord = GcsWire::OrdDeliver {
                    seq: state.global_seq,
                    group: group.clone(),
                    sender,
                    payload,
                };
                (ord, group)
            }
            GcsWire::Attach { .. }
            | GcsWire::Join { .. }
            | GcsWire::Leave { .. }
            | GcsWire::Multicast { .. }
            | GcsWire::Attached
            | GcsWire::View { .. }
            | GcsWire::Deliver { .. }
            | GcsWire::Hello { .. }
            | GcsWire::OrdView { .. }
            | GcsWire::OrdDeliver { .. }
            | GcsWire::Heartbeat { .. } => {
                sys.emit(EventKind::ProtocolError("gcs.protocol_error"));
                return;
            }
        };
        let encoded = ord.encode();
        // Spread-like routing: ship the ordered operation only to daemons
        // that host members of the group (the sequencer tracks membership,
        // so it knows). This keeps the Figure 5 mesh-bandwidth measurement
        // honest.
        let state = self.seq_state.as_ref().expect("sequencer state");
        let member_daemons: std::collections::BTreeSet<u32> = state
            .groups
            .get(&group_name)
            .map(|g| g.members.iter().map(|(_, d)| *d).collect())
            .unwrap_or_default();
        let peer_conns: Vec<ConnId> = state
            .peers
            .iter()
            .filter(|(node, _)| member_daemons.contains(node))
            .map(|(_, conn)| *conn)
            .collect();
        for conn in peer_conns {
            let _ = sys.write_bytes(conn, encoded.clone());
        }
        // Deliver to our own local members without a network hop.
        self.handle_ordered(sys, ord);
    }

    /// Applies an ordered operation locally: updates local membership and
    /// forwards deliveries/views to locally attached members.
    fn handle_ordered(&mut self, sys: &mut dyn SysApi, ord: GcsWire) {
        sys.charge_cpu(self.cfg.routing_cpu);
        match ord {
            GcsWire::OrdView {
                group,
                view_id,
                members,
                ..
            } => {
                let local: NameSet = members
                    .iter()
                    .map(String::as_str)
                    .filter(|m| self.local_members.contains_key(*m))
                    .collect();
                // Members removed from the view must also hear about it if
                // they are still attached locally (they may have crashed, in
                // which case the connection is already gone).
                let recipients = match self.local_groups.get(&group) {
                    Some(previously) => local.union(previously),
                    None => local.clone(),
                };
                if local.is_empty() {
                    self.local_groups.remove(&group);
                } else {
                    self.local_groups.insert(group.clone(), local);
                }
                let msg = GcsWire::View {
                    group,
                    view_id,
                    members,
                };
                let encoded = msg.encode();
                for member in recipients.iter() {
                    if let Some(&conn) = self.local_members.get(member) {
                        let _ = sys.write_bytes(conn, encoded.clone());
                    }
                }
            }
            GcsWire::OrdDeliver {
                group,
                sender,
                payload,
                ..
            } => {
                let Some(local) = self.local_groups.get(&group) else {
                    return;
                };
                let msg = GcsWire::Deliver {
                    group,
                    sender,
                    payload,
                };
                let encoded = msg.encode();
                for member in local.iter() {
                    if let Some(&conn) = self.local_members.get(member) {
                        let _ = sys.write_bytes(conn, encoded.clone());
                    }
                }
            }
            GcsWire::Attach { .. }
            | GcsWire::Join { .. }
            | GcsWire::Leave { .. }
            | GcsWire::Multicast { .. }
            | GcsWire::Attached
            | GcsWire::View { .. }
            | GcsWire::Deliver { .. }
            | GcsWire::Hello { .. }
            | GcsWire::FwdJoin { .. }
            | GcsWire::FwdLeave { .. }
            | GcsWire::FwdMulticast { .. }
            | GcsWire::Heartbeat { .. } => {
                sys.emit(EventKind::ProtocolError("gcs.protocol_error"));
            }
        }
    }

    /// Processes one message arriving on `conn`.
    fn handle_message(&mut self, sys: &mut dyn SysApi, conn: ConnId, msg: GcsWire) {
        let kind_is_pending = matches!(
            self.conns.get(&conn).map(|c| &c.kind),
            Some(ConnKind::Pending)
        );
        if kind_is_pending {
            match msg {
                GcsWire::Attach { member } => {
                    self.local_members.insert(member.clone(), conn);
                    if let Some(c) = self.conns.get_mut(&conn) {
                        c.kind = ConnKind::Client {
                            member,
                            groups: NameSet::default(),
                        };
                    }
                    let _ = sys.write_bytes(conn, GcsWire::Attached.encode());
                }
                GcsWire::Hello { node } => {
                    if let Some(c) = self.conns.get_mut(&conn) {
                        c.kind = ConnKind::Peer { node };
                    }
                    sys.tag_conn(conn, MESH_TAG);
                    if let Some(seq) = self.seq_state.as_mut() {
                        seq.peers.insert(node, conn);
                    } else {
                        sys.emit(EventKind::ProtocolError("gcs.protocol_error"));
                    }
                }
                GcsWire::Join { .. }
                | GcsWire::Leave { .. }
                | GcsWire::Multicast { .. }
                | GcsWire::Attached
                | GcsWire::View { .. }
                | GcsWire::Deliver { .. }
                | GcsWire::FwdJoin { .. }
                | GcsWire::FwdLeave { .. }
                | GcsWire::FwdMulticast { .. }
                | GcsWire::OrdView { .. }
                | GcsWire::OrdDeliver { .. }
                | GcsWire::Heartbeat { .. } => {
                    sys.emit(EventKind::ProtocolError("gcs.protocol_error"));
                    sys.close(conn);
                    self.conns.remove(&conn);
                }
            }
            return;
        }
        let kind = self.conns.get(&conn).map(|c| match &c.kind {
            ConnKind::Client { member, .. } => (true, member.clone()),
            ConnKind::Peer { .. } => (false, String::new()),
            ConnKind::Pending => unreachable!("handled above"),
        });
        let Some((is_client, member)) = kind else {
            return;
        };
        if is_client {
            match msg {
                GcsWire::Join { group } => {
                    if let Some(ConnState {
                        kind: ConnKind::Client { groups, .. },
                        ..
                    }) = self.conns.get_mut(&conn)
                    {
                        groups.insert(&group);
                    }
                    let daemon = sys.my_node().index();
                    self.forward(
                        sys,
                        GcsWire::FwdJoin {
                            group,
                            member,
                            daemon,
                        },
                    );
                }
                GcsWire::Leave { group } => {
                    if let Some(ConnState {
                        kind: ConnKind::Client { groups, .. },
                        ..
                    }) = self.conns.get_mut(&conn)
                    {
                        groups.remove(&group);
                    }
                    self.forward(sys, GcsWire::FwdLeave { group, member });
                }
                GcsWire::Multicast { group, payload } => {
                    self.forward(
                        sys,
                        GcsWire::FwdMulticast {
                            group,
                            sender: member,
                            payload,
                        },
                    );
                }
                GcsWire::Attach { .. }
                | GcsWire::Attached
                | GcsWire::View { .. }
                | GcsWire::Deliver { .. }
                | GcsWire::Hello { .. }
                | GcsWire::FwdJoin { .. }
                | GcsWire::FwdLeave { .. }
                | GcsWire::FwdMulticast { .. }
                | GcsWire::OrdView { .. }
                | GcsWire::OrdDeliver { .. }
                | GcsWire::Heartbeat { .. } => {
                    sys.emit(EventKind::ProtocolError("gcs.protocol_error"));
                }
            }
        } else {
            // Peer daemon traffic: at the sequencer these are forwards; at
            // an ordinary daemon these are ordered operations coming back.
            match msg {
                fwd @ (GcsWire::FwdJoin { .. }
                | GcsWire::FwdLeave { .. }
                | GcsWire::FwdMulticast { .. }) => {
                    if self.seq_state.is_some() {
                        self.sequence(sys, fwd);
                    } else {
                        sys.emit(EventKind::ProtocolError("gcs.protocol_error"));
                    }
                }
                ord @ (GcsWire::OrdView { .. } | GcsWire::OrdDeliver { .. }) => {
                    self.handle_ordered(sys, ord)
                }
                GcsWire::Heartbeat { pad } => {
                    // Echo the token back (one circulation leg each way),
                    // but only from the sequencer to avoid ping-pong.
                    if self.seq_state.is_some() {
                        let _ = sys.write_bytes(conn, GcsWire::Heartbeat { pad }.encode());
                    }
                }
                GcsWire::Attach { .. }
                | GcsWire::Join { .. }
                | GcsWire::Leave { .. }
                | GcsWire::Multicast { .. }
                | GcsWire::Attached
                | GcsWire::View { .. }
                | GcsWire::Deliver { .. }
                | GcsWire::Hello { .. } => {
                    sys.emit(EventKind::ProtocolError("gcs.protocol_error"));
                }
            }
        }
    }

    /// Handles a client connection disappearing: forwards crash-leaves for
    /// every group the member had joined — the paper's crash-triggered
    /// membership notification.
    fn handle_conn_gone(&mut self, sys: &mut dyn SysApi, conn: ConnId) {
        let Some(state) = self.conns.remove(&conn) else {
            return;
        };
        match state.kind {
            ConnKind::Client { member, groups } => {
                self.local_members.remove(&member);
                for set in self.local_groups.values_mut() {
                    set.remove(&member);
                }
                self.local_groups.retain(|_, s| !s.is_empty());
                for group in groups {
                    self.forward(
                        sys,
                        GcsWire::FwdLeave {
                            group,
                            member: member.clone(),
                        },
                    );
                }
            }
            ConnKind::Peer { node } => {
                if let Some(seq) = self.seq_state.as_mut() {
                    seq.peers.remove(&node);
                }
                // A daemon vanishing means its whole node is gone (node
                // crash fault): every member it hosted leaves, exactly as
                // Spread's node-level membership reports.
                if self.seq_state.is_some() {
                    let orphans: Vec<(String, String)> = self
                        .seq_state
                        .as_ref()
                        .expect("sequencer state")
                        .groups
                        .iter()
                        .flat_map(|(g, gs)| {
                            gs.members
                                .iter()
                                .filter(|(_, d)| *d == node)
                                .map(|(m, _)| (g.clone(), m.clone()))
                                .collect::<Vec<_>>()
                        })
                        .collect();
                    for (group, member) in orphans {
                        sys.count("gcs.node_crash_leave", 1);
                        self.sequence(sys, GcsWire::FwdLeave { group, member });
                    }
                }
            }
            ConnKind::Pending => {}
        }
        sys.close(conn);
    }
}

impl Process for GcsDaemon {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.listener = Some(sys.listen(GCS_PORT).expect("GCS port free on this node"));
        if self.is_sequencer(sys) {
            self.seq_state = Some(SequencerState::default());
        } else {
            self.connect_up(sys);
        }
    }

    fn on_event(&mut self, sys: &mut dyn SysApi, event: Event) {
        match event {
            Event::Accepted { conn, .. } => {
                self.conns.insert(
                    conn,
                    ConnState {
                        kind: ConnKind::Pending,
                        splitter: GcsSplitter::new(),
                    },
                );
            }
            Event::ConnEstablished { conn } if Some(conn) == self.up => {
                self.up_ready = true;
                let node = sys.my_node().index();
                let _ = sys.write_bytes(conn, GcsWire::Hello { node }.encode());
                if !self.cfg.heartbeat_interval.is_zero() {
                    sys.set_timer(self.cfg.heartbeat_interval, TOKEN_HEARTBEAT);
                }
                for msg in std::mem::take(&mut self.up_backlog) {
                    let _ = sys.write_bytes(conn, msg.encode());
                }
                // The upstream connection also carries the ordered stream
                // back to us; track it like a peer connection.
                self.conns.insert(
                    conn,
                    ConnState {
                        kind: ConnKind::Peer { node: u32::MAX },
                        splitter: GcsSplitter::new(),
                    },
                );
            }
            Event::ConnRefused { conn } if Some(conn) == self.up => {
                // Sequencer daemon not up yet: retry shortly.
                sys.set_timer(self.cfg.retry_interval, TOKEN_RETRY);
            }
            Event::TimerFired {
                token: TOKEN_RETRY, ..
            } if !self.up_ready => {
                self.connect_up(sys);
            }
            Event::TimerFired {
                token: TOKEN_HEARTBEAT,
                ..
            } if self.up_ready => {
                let up = self.up.expect("ready implies connected");
                let pad = vec![0u8; self.cfg.heartbeat_bytes];
                let _ = sys.write_bytes(up, GcsWire::Heartbeat { pad }.encode());
                sys.set_timer(self.cfg.heartbeat_interval, TOKEN_HEARTBEAT);
            }
            Event::TimerFired { token, .. } if token >= TOKEN_MEMBERSHIP_BASE => {
                if let Some(op) = self.pending_membership.remove(&token) {
                    self.sequence_now(sys, op);
                }
            }
            Event::DataReadable { conn } => {
                let Some(state) = self.conns.get_mut(&conn) else {
                    return;
                };
                let Ok(read) = sys.read(conn, usize::MAX) else {
                    return;
                };
                state.splitter.push_bytes(read.data);
                while let Some(state) = self.conns.get_mut(&conn) {
                    match state.splitter.next_message() {
                        Ok(Some(msg)) => self.handle_message(sys, conn, msg),
                        Ok(None) => break,
                        Err(_) => {
                            sys.emit(EventKind::ProtocolError("gcs.protocol_error"));
                            self.handle_conn_gone(sys, conn);
                            break;
                        }
                    }
                }
            }
            Event::PeerClosed { conn } => self.handle_conn_gone(sys, conn),
            _ => {}
        }
    }

    fn label(&self) -> &str {
        "gcs-daemon"
    }

    fn fork(&self) -> Option<Box<dyn Process>> {
        Some(Box::new(self.clone()))
    }
}

//! Embeddable group-communication client.
//!
//! [`GcsClient`] is a library (not a process): the owning process — a MEAD
//! interceptor, the Recovery Manager, a replica — embeds one, forwards
//! relevant [`Event`]s to [`GcsClient::handle_event`], and receives
//! [`GcsDelivery`] values back. This mirrors how a real application links
//! the Spread client library and multiplexes its socket inside `select()`
//! — which is precisely what the paper's interceptor does by adding "the
//! group-communication socket into the list of read-sockets examined by
//! `select()`" (section 3.1).

use obs::EventKind;
use simnet::{Addr, ConnId, Event, SimDuration, SysApi};

use crate::daemon::GCS_PORT;
use crate::names::NameSet;
use crate::wire::{GcsSplitter, GcsWire};

/// Something the group-communication system delivered to this member.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GcsDelivery {
    /// The daemon acknowledged our attach; joins/multicasts now flow.
    Ready,
    /// A new membership view, totally ordered w.r.t. messages.
    View {
        /// Group name.
        group: String,
        /// Monotonic view number within the group.
        view_id: u64,
        /// Members in join order — the paper's schemes treat
        /// `members[0]` as the primary.
        members: Vec<String>,
    },
    /// An ordered multicast.
    Message {
        /// Group name.
        group: String,
        /// Sending member.
        sender: String,
        /// Opaque payload.
        payload: Vec<u8>,
    },
    /// The connection to the local daemon was lost.
    DaemonLost,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ClientState {
    Idle,
    Connecting,
    Attaching,
    Ready,
    Lost,
}

/// A handle to the local GCS daemon, embedded in a host process.
#[derive(Clone, Debug)]
pub struct GcsClient {
    member: String,
    token_base: u64,
    state: ClientState,
    conn: Option<ConnId>,
    splitter: GcsSplitter,
    backlog: Vec<GcsWire>,
    joined: NameSet,
    retry_interval: SimDuration,
}

impl GcsClient {
    /// Creates a client identifying itself as `member`.
    ///
    /// `token_base` reserves a timer-token namespace in the host process;
    /// the client uses only `token_base` itself.
    pub fn new(member: impl Into<String>, token_base: u64) -> Self {
        GcsClient {
            member: member.into(),
            token_base,
            state: ClientState::Idle,
            conn: None,
            splitter: GcsSplitter::new(),
            backlog: Vec::new(),
            joined: NameSet::default(),
            retry_interval: SimDuration::from_millis(10),
        }
    }

    /// This member's name.
    pub fn member(&self) -> &str {
        &self.member
    }

    /// `true` once attached and able to send.
    pub fn is_ready(&self) -> bool {
        self.state == ClientState::Ready
    }

    /// Groups currently joined (as requested; authoritative membership
    /// arrives via [`GcsDelivery::View`]).
    pub fn joined_groups(&self) -> impl Iterator<Item = &str> {
        self.joined.iter()
    }

    /// Connects to the daemon on the local node. Call from `on_start`.
    pub fn start(&mut self, sys: &mut dyn SysApi) {
        let addr = Addr::new(sys.my_node(), GCS_PORT);
        self.conn = Some(sys.connect(addr));
        self.state = ClientState::Connecting;
    }

    /// Joins `group` (queued until attached).
    pub fn join(&mut self, sys: &mut dyn SysApi, group: &str) {
        self.joined.insert(group);
        self.send(
            sys,
            GcsWire::Join {
                group: group.to_string(),
            },
        );
    }

    /// Leaves `group`.
    pub fn leave(&mut self, sys: &mut dyn SysApi, group: &str) {
        self.joined.remove(group);
        self.send(
            sys,
            GcsWire::Leave {
                group: group.to_string(),
            },
        );
    }

    /// Multicasts `payload` to `group` in total order. Open-group: works
    /// without having joined.
    pub fn multicast(&mut self, sys: &mut dyn SysApi, group: &str, payload: &[u8]) {
        self.send(
            sys,
            GcsWire::Multicast {
                group: group.to_string(),
                payload: payload.to_vec(),
            },
        );
    }

    fn send(&mut self, sys: &mut dyn SysApi, msg: GcsWire) {
        if self.state == ClientState::Ready {
            let conn = self.conn.expect("ready implies connected");
            let _ = sys.write_bytes(conn, msg.encode());
        } else {
            self.backlog.push(msg);
        }
    }

    /// Offers an event to the client.
    ///
    /// Returns `None` when the event does not concern the GCS connection
    /// (the host should handle it); otherwise the deliveries it produced.
    pub fn handle_event(
        &mut self,
        sys: &mut dyn SysApi,
        event: &Event,
    ) -> Option<Vec<GcsDelivery>> {
        match event {
            Event::ConnEstablished { conn } if Some(*conn) == self.conn => {
                self.state = ClientState::Attaching;
                let _ = sys.write_bytes(
                    *conn,
                    GcsWire::Attach {
                        member: self.member.clone(),
                    }
                    .encode(),
                );
                Some(Vec::new())
            }
            Event::ConnRefused { conn } if Some(*conn) == self.conn => {
                // Daemon not up yet (boot race): retry shortly.
                sys.set_timer(self.retry_interval, self.token_base);
                Some(Vec::new())
            }
            Event::TimerFired { token, .. } if *token == self.token_base => {
                match self.state {
                    ClientState::Connecting | ClientState::Idle => self.start(sys),
                    // The daemon died under us earlier: reconnect with a
                    // fresh frame splitter (the old stream's bytes are
                    // meaningless on a new connection).
                    ClientState::Lost => {
                        if let Some(conn) = self.conn.take() {
                            sys.close(conn);
                        }
                        self.splitter = GcsSplitter::new();
                        self.start(sys);
                    }
                    _ => {}
                }
                Some(Vec::new())
            }
            Event::DataReadable { conn } if Some(*conn) == self.conn => {
                let Ok(read) = sys.read(*conn, usize::MAX) else {
                    return Some(Vec::new());
                };
                self.splitter.push_bytes(read.data);
                let mut out = Vec::new();
                loop {
                    match self.splitter.next_message() {
                        Ok(Some(msg)) => self.on_message(sys, msg, &mut out),
                        Ok(None) => break,
                        Err(_) => {
                            sys.emit(EventKind::ProtocolError("gcs.client_protocol_error"));
                            self.lose(sys, &mut out);
                            break;
                        }
                    }
                }
                Some(out)
            }
            Event::PeerClosed { conn } if Some(*conn) == self.conn => {
                let mut out = Vec::new();
                self.lose(sys, &mut out);
                Some(out)
            }
            _ => None,
        }
    }

    /// Marks the daemon connection dead and arms the reconnect timer.
    /// The host sees exactly one [`GcsDelivery::DaemonLost`]; a later
    /// [`GcsDelivery::Ready`] means the client re-attached (with its
    /// previous joins re-issued).
    fn lose(&mut self, sys: &mut dyn SysApi, out: &mut Vec<GcsDelivery>) {
        self.state = ClientState::Lost;
        sys.set_timer(self.retry_interval, self.token_base);
        out.push(GcsDelivery::DaemonLost);
    }

    fn on_message(&mut self, sys: &mut dyn SysApi, msg: GcsWire, out: &mut Vec<GcsDelivery>) {
        match msg {
            GcsWire::Attached => {
                self.state = ClientState::Ready;
                let conn = self.conn.expect("attached implies connected");
                // Re-issue every standing join first (after a reconnect
                // the daemon has forgotten us), then the backlog — minus
                // queued joins for those same groups, which would
                // otherwise be sent twice.
                for group in self.joined.iter() {
                    let _ = sys.write_bytes(
                        conn,
                        GcsWire::Join {
                            group: group.to_string(),
                        }
                        .encode(),
                    );
                }
                for queued in std::mem::take(&mut self.backlog) {
                    if let GcsWire::Join { group } = &queued {
                        if self.joined.contains(group) {
                            continue;
                        }
                    }
                    let _ = sys.write_bytes(conn, queued.encode());
                }
                out.push(GcsDelivery::Ready);
            }
            GcsWire::View {
                group,
                view_id,
                members,
            } => out.push(GcsDelivery::View {
                group,
                view_id,
                members,
            }),
            GcsWire::Deliver {
                group,
                sender,
                payload,
            } => out.push(GcsDelivery::Message {
                group,
                sender,
                payload,
            }),
            GcsWire::Attach { .. }
            | GcsWire::Join { .. }
            | GcsWire::Leave { .. }
            | GcsWire::Multicast { .. }
            | GcsWire::Hello { .. }
            | GcsWire::FwdJoin { .. }
            | GcsWire::FwdLeave { .. }
            | GcsWire::FwdMulticast { .. }
            | GcsWire::OrdView { .. }
            | GcsWire::OrdDeliver { .. }
            | GcsWire::Heartbeat { .. } => {
                sys.emit(EventKind::ProtocolError("gcs.client_protocol_error"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_client_is_idle_and_remembers_member() {
        let c = GcsClient::new("replica-1", 100);
        assert_eq!(c.member(), "replica-1");
        assert!(!c.is_ready());
        assert_eq!(c.joined_groups().count(), 0);
    }
}

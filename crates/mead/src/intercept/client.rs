//! The client-side MEAD Interceptor.
//!
//! Wraps an unmodified client process (workload + client ORB). Per
//! section 3.1, "for client sockets, we use the read() call to filter and
//! interpret the custom MEAD messages that we piggyback onto regular GIOP
//! messages. We use the writev() call to redirect client requests to
//! non-faulty server replicas in the event of proactive fail-over."
//!
//! Like the paper's interceptor, it classifies sockets and acts only on
//! connections to server replicas. A connection to the Naming Service
//! is handed to the application raw, the way the interceptor's own
//! group-communication connection bypasses it: no scheme acts on naming
//! traffic. Every other connection the application opens gets one
//! [`Link`] record: the staged stream, the real connection carrying it,
//! and where its redirect stands ([`Redirection`]). Nothing about a
//! connection lives outside its record except the real → application id
//! map the kernel's events are routed by.
//!
//! Two schemes activate client-side logic:
//!
//! * **MEAD fail-over messages** (section 4.3): incoming streams are
//!   scanned for piggybacked `"MEAD"` frames; on a fail-over notice the
//!   interceptor opens a connection to the named replica and, once it is
//!   established, performs the `dup2()`-style swap — the application keeps
//!   using the same descriptor, but bytes now flow to the new replica. The
//!   GIOP reply travelling with the notice is passed up untouched.
//! * **NEEDS_ADDRESSING_MODE** (section 4.2): an EOF on a server stream is
//!   *suppressed*; the interceptor multicasts an `AddressQuery` to the
//!   server group, waits up to 10 ms for an `AddressReply` from the first
//!   live replica, redirects the connection, and fabricates a
//!   `NEEDS_ADDRESSING_MODE` reply that makes the client ORB retransmit
//!   its last request over the redirected connection. On timeout the EOF
//!   is released and the application sees `COMM_FAILURE`.

use std::collections::BTreeMap;

use bytes::Bytes;
use giop::{Endian, Frame, FrameKind, Message, MessageView, MsgType, ReplyBody, ReplyMessage};
use groupcomm::{GcsClient, GcsDelivery};
use obs::{EventKind, Phase};
use simnet::{
    Addr, ConnId, Event, ExitReason, ListenerId, Port, Process, ProcessFactory, ProcessId,
    ReadOutcome, SimDuration, SimRng, SimTime, SysApi, SysError, TimerId,
};

use crate::config::RecoveryScheme;
use crate::directory::SERVER_GROUP;
use crate::intercept::common::{
    is_intercept_token, Scanned, Stream, FABRICATE_CPU, TOKEN_GCS, TOKEN_QUERY_TIMEOUT,
    TOKEN_REDIRECT_DONE_BASE,
};
use crate::messages::{FailoverNotice, GroupMsg};

/// Light parse extracting only the request id, plus the reply-path frame
/// scan (NEEDS_ADDRESSING; charged once per invocation on the client's
/// request path): ≈8 % RTT overhead on the paper's testbed (DESIGN §7).
const REQUEST_TRACK_CPU: SimDuration = SimDuration::from_micros(60);
/// Completing a `dup2()`-style connection redirect at the client: socket
/// teardown/re-pointing plus interceptor bookkeeping. Far cheaper than an
/// ORB-level reconnect (~6 ms) — this asymmetry is the source of the MEAD
/// scheme's 73.9 % fail-over win.
pub const REDIRECT_CPU: SimDuration = SimDuration::from_micros(1250);
/// Wait for an `AddressReply` before exposing the failure (paper: "we
/// used a 10 ms timeout").
const ADDRESS_QUERY_TIMEOUT: SimDuration = SimDuration::from_millis(10);

/// Where a connection's redirect stands. `resend` is the request in
/// flight when a NEEDS_ADDRESSING EOF was suppressed: the fabricated
/// reply that ends the redirect names it.
enum Redirection {
    /// No redirect: bytes flow over the link's real connection.
    Settled,
    /// NEEDS_ADDRESSING: the EOF is suppressed and an `AddressQuery` is
    /// out; `timer` releases the EOF if no replica answers.
    Asking { timer: TimerId, resend: Option<u32> },
    /// The replacement connection `to` is being dialled.
    Dialing { to: ConnId, resend: Option<u32> },
    /// The application closed the stream while `to` was being dialled.
    /// The record stays until the dial resolves; an established dial is
    /// then hung up, with nothing charged or traced.
    Orphaned { to: ConnId },
    /// The descriptor is swapped; the redirect's cost is being paid until
    /// the completion timer fires.
    Finishing { resend: Option<u32> },
}

/// One intercepted connection, keyed by the id the application knows it
/// by even after the interceptor has redirected it to another real
/// connection.
struct Link {
    /// The real connection currently carrying the stream.
    real: ConnId,
    stream: Stream,
    redirect: Redirection,
    /// NEEDS_ADDRESSING: the request in flight, if any.
    outstanding: Option<u32>,
    /// Application writes held while a redirect is in flight.
    pending_writes: Vec<Bytes>,
    /// Inbound frames held while a redirect is in flight (the paper's
    /// interceptor redirects synchronously inside `read()` before passing
    /// the accompanying reply up to the application).
    held_frames: Vec<Frame>,
    /// The redirect finished and no reply has come off the new connection
    /// yet: the next one closes the paper's fail-over window
    /// (`FirstReplyAfterFailover`).
    first_reply_due: bool,
}

impl Link {
    fn new(real: ConnId) -> Self {
        Link {
            real,
            stream: Stream::default(),
            redirect: Redirection::Settled,
            outstanding: None,
            pending_writes: Vec::new(),
            held_frames: Vec::new(),
            first_reply_due: false,
        }
    }

    fn redirecting(&self) -> bool {
        !matches!(self.redirect, Redirection::Settled)
    }

    /// Strips MEAD frames from the bytes read off the real connection and
    /// stages GIOP frames. Returns whether application-visible bytes were
    /// staged.
    fn pump(&mut self, sys: &mut dyn SysApi, data: Bytes) -> bool {
        self.stream.incoming.push(data);
        let mut staged = false;
        while let Some(scanned) = self.stream.incoming.scan() {
            let frame = match scanned {
                Scanned::Frame(frame) => frame,
                Scanned::Raw(raw, error) => {
                    // Out of sync: stop interpreting this stream and let
                    // the ORB see (and close) it.
                    if error.is_some() {
                        sys.emit(EventKind::ProtocolError("mead.client.desync"));
                    }
                    self.stream.stage_bytes(raw);
                    staged = true;
                    continue;
                }
            };
            match frame.kind {
                FrameKind::Mead => {
                    // Strip and act: this is the proactive fail-over path.
                    match FailoverNotice::decode(&frame) {
                        Ok(notice) => self.begin_mead_redirect(sys, &notice),
                        Err(_) => {
                            sys.emit(EventKind::ProtocolError("mead.client.bad_notice"));
                        }
                    }
                }
                FrameKind::Giop => {
                    if frame.msg_type() == MsgType::Reply as u8 {
                        // A reply settles the in-flight request.
                        self.outstanding = None;
                        // A reply read off the redirected connection closes
                        // the fail-over window. Replies held during the
                        // redirect came from the old replica and do not
                        // count.
                        if !self.redirecting() && std::mem::take(&mut self.first_reply_due) {
                            sys.emit(EventKind::Phase(Phase::FirstReplyAfterFailover));
                        }
                    }
                    if self.redirecting() {
                        // Redirect in progress (triggered by a notice
                        // earlier in this very read): hold the reply until
                        // the new connection is in place, as the paper's
                        // synchronous in-read() redirect does.
                        self.held_frames.push(frame);
                    } else {
                        self.stream.stage_frame(frame);
                        staged = true;
                    }
                }
            }
        }
        staged
    }

    /// Starts the dup2-style redirect after a fail-over notice.
    fn begin_mead_redirect(&mut self, sys: &mut dyn SysApi, notice: &FailoverNotice) {
        let Some(node) = crate::node_of(&notice.host) else {
            sys.emit(EventKind::ProtocolError("mead.client.bad_notice"));
            return;
        };
        if self.redirecting() {
            return; // already moving
        }
        sys.count("mead.client.redirects_started", 1);
        let to = sys.connect(Addr::new(node, Port(notice.port)));
        self.redirect = Redirection::Dialing { to, resend: None };
    }
}

/// The client-side interceptor process.
pub struct ClientInterceptor {
    inner: Box<dyn Process>,
    st: ClientState,
}

struct ClientState {
    scheme: RecoveryScheme,
    gcs: Option<GcsClient>,
    reply_group: String,
    /// App conn id -> link. Boxed: a client holds one or two links, and a
    /// B-tree leaf reserves room for eleven values inline.
    links: BTreeMap<ConnId, Box<Link>>,
    /// Real conn id -> app conn id (diverges after redirects).
    real_to_app: BTreeMap<ConnId, ConnId>,
}

impl ClientInterceptor {
    /// Wraps `inner` (an unmodified client process) for `scheme`.
    pub fn new(scheme: RecoveryScheme, inner: Box<dyn Process>) -> Self {
        ClientInterceptor {
            inner,
            st: ClientState {
                scheme,
                gcs: None,
                reply_group: String::new(),
                links: BTreeMap::new(),
                real_to_app: BTreeMap::new(),
            },
        }
    }

    /// Raises `event` to the wrapped application.
    fn deliver(&mut self, sys: &mut dyn SysApi, event: Event) {
        let mut facade = ClientFacade {
            sys,
            st: &mut self.st,
        };
        self.inner.on_event(&mut facade, event);
    }
}

impl Process for ClientInterceptor {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        let pid = sys.my_pid().raw();
        self.st.reply_group = format!("clients/{pid}");
        let mut gcs = GcsClient::new(format!("client/{pid}"), TOKEN_GCS);
        gcs.start(sys);
        let reply_group = self.st.reply_group.clone();
        gcs.join(sys, &reply_group);
        self.st.gcs = Some(gcs);
        let mut facade = ClientFacade {
            sys,
            st: &mut self.st,
        };
        self.inner.on_start(&mut facade);
    }

    fn on_event(&mut self, sys: &mut dyn SysApi, event: Event) {
        let deliveries = self
            .st
            .gcs
            .as_mut()
            .and_then(|gcs| gcs.handle_event(sys, &event));
        if let Some(deliveries) = deliveries {
            for d in deliveries {
                self.st.on_gcs(sys, d);
            }
            return;
        }
        if let Event::TimerFired { token, .. } = event {
            if is_intercept_token(token) {
                if let Some(ev) = self.st.on_timer(sys, token) {
                    self.deliver(sys, ev);
                }
                return;
            }
        }
        // Whose event is it: a redirect's dial, or an intercepted stream's
        // real connection?
        let owner = match event {
            Event::ConnEstablished { conn } | Event::ConnRefused { conn } => {
                self.st.dialer_of(conn)
            }
            Event::DataReadable { conn } | Event::PeerClosed { conn } => {
                self.st.real_to_app.get(&conn).copied()
            }
            _ => None,
        };
        match (event, owner) {
            (Event::ConnEstablished { conn }, Some(app)) => {
                self.st.complete_redirect(sys, app, conn)
            }
            (Event::ConnRefused { .. }, Some(app)) => {
                // Redirect target is gone too: release the failure to the
                // application.
                self.st.refuse_redirect(app);
                self.deliver(sys, Event::PeerClosed { conn: app });
            }
            (Event::DataReadable { conn }, Some(app)) => {
                if self.st.pump_incoming(sys, conn, app) {
                    self.deliver(sys, Event::DataReadable { conn: app });
                }
            }
            (Event::PeerClosed { .. }, Some(app))
                if self.st.scheme == RecoveryScheme::NeedsAddressing =>
            {
                // Suppress the failure and go ask the group (section 4.2).
                self.st.suppress_eof(sys, app);
            }
            (Event::PeerClosed { .. }, Some(app)) => {
                if let Some(link) = self.st.links.get_mut(&app) {
                    link.stream.stage_eof = true;
                }
                self.deliver(sys, Event::PeerClosed { conn: app });
            }
            (other, _) => {
                // App timers and the events of connections nobody
                // redirected yet (clients don't listen) pass through as
                // they are: an app connection keeps its real id until
                // its first redirect, which needs it established first.
                let refused = match other {
                    Event::ConnRefused { conn } => Some(conn),
                    _ => None,
                };
                self.deliver(sys, other);
                if let Some(conn) = refused {
                    // The ORB drops a refused connection without closing
                    // it, so its link is forgotten here or never.
                    if let Some(app) = self.st.real_to_app.remove(&conn) {
                        self.st.links.remove(&app);
                    }
                }
            }
        }
    }

    fn label(&self) -> &str {
        "mead-client-interceptor"
    }
}

impl ClientState {
    /// Drains the real connection into its link. Returns whether
    /// application-visible bytes were staged.
    fn pump_incoming(&mut self, sys: &mut dyn SysApi, real: ConnId, app: ConnId) -> bool {
        let Ok(read) = sys.read(real, usize::MAX) else {
            return false;
        };
        let Some(link) = self.links.get_mut(&app) else {
            return false;
        };
        if read.eof && self.scheme != RecoveryScheme::NeedsAddressing {
            link.stream.stage_eof = true;
        }
        link.pump(sys, read.data)
    }

    /// The application connection whose redirect is dialling `conn`.
    fn dialer_of(&self, conn: ConnId) -> Option<ConnId> {
        let dials = |link: &Link| match link.redirect {
            Redirection::Dialing { to, .. } | Redirection::Orphaned { to } => to == conn,
            _ => false,
        };
        self.links
            .iter()
            .find(|(_, link)| dials(link))
            .map(|(&app, _)| app)
    }

    /// The first link (in application id order) with an `AddressQuery`
    /// out, with its timer and the request to resend.
    fn asking(&mut self) -> Option<(ConnId, &mut Link, TimerId, Option<u32>)> {
        self.links
            .iter_mut()
            .find_map(|(&app, link)| match link.redirect {
                Redirection::Asking { timer, resend } => Some((app, &mut **link, timer, resend)),
                _ => None,
            })
    }

    /// First half of finishing a redirect, run when the replacement
    /// connection establishes: swap the descriptor mapping (the `dup2()`)
    /// and close the old connection. The interceptor then stays "busy"
    /// for the redirect cost; held replies, buffered writes and the
    /// fabricated retransmission trigger are released when the
    /// completion timer fires ([`finish_redirect`](Self::finish_redirect)),
    /// so the cost is visible in the round-trip the client measures —
    /// matching the paper's synchronous in-`read()` redirect.
    fn complete_redirect(&mut self, sys: &mut dyn SysApi, app: ConnId, new_real: ConnId) {
        let Some(link) = self.links.get_mut(&app) else {
            return;
        };
        let Redirection::Dialing { resend, .. } = link.redirect else {
            // Orphaned: nobody is left to redirect. Hang up, or the new
            // replica would keep waiting on a client that never writes.
            self.links.remove(&app);
            sys.close(new_real);
            return;
        };
        sys.charge_cpu(REDIRECT_CPU);
        sys.emit(EventKind::Phase(Phase::ClientRedirect));
        link.redirect = Redirection::Finishing { resend };
        let old_real = std::mem::replace(&mut link.real, new_real);
        self.real_to_app.remove(&old_real);
        self.real_to_app.insert(new_real, app);
        sys.close(old_real);
        sys.set_timer(REDIRECT_CPU, TOKEN_REDIRECT_DONE_BASE + app.raw());
    }

    /// The replacement connection was refused: the link falls back to its
    /// old connection with the EOF staged (an orphaned link just goes).
    fn refuse_redirect(&mut self, app: ConnId) {
        let Some(link) = self.links.get_mut(&app) else {
            return;
        };
        if let Redirection::Orphaned { .. } = link.redirect {
            self.links.remove(&app);
            return;
        }
        link.redirect = Redirection::Settled;
        link.stream.stage_eof = true;
    }

    /// Second half of a redirect, after the dup2 work: release held
    /// frames, flush buffered writes, fabricate the retransmission trigger
    /// if a request was in flight, and wake the application.
    fn finish_redirect(&mut self, sys: &mut dyn SysApi, app: ConnId) -> Option<Event> {
        let link = self.links.get_mut(&app)?;
        let Redirection::Finishing { resend } = link.redirect else {
            return None;
        };
        link.redirect = Redirection::Settled;
        link.first_reply_due = true;
        for queued in std::mem::take(&mut link.pending_writes) {
            let _ = sys.write_bytes(link.real, queued);
        }
        for frame in std::mem::take(&mut link.held_frames) {
            link.stream.stage_frame(frame);
        }
        let mut wake = link.stream.staged_len() > 0;
        if let Some(request_id) = resend {
            // Fabricate the NEEDS_ADDRESSING_MODE reply that makes the ORB
            // resend over the redirected connection.
            sys.charge_cpu(FABRICATE_CPU);
            sys.count("mead.client.fabricated_needs_addr", 1);
            let fab = Message::Reply(ReplyMessage {
                request_id,
                body: ReplyBody::NeedsAddressingMode(0),
            })
            .encode(Endian::Big);
            link.stream.stage_bytes(fab);
            wake = true;
        }
        wake.then_some(Event::DataReadable { conn: app })
    }

    /// NEEDS_ADDRESSING: EOF detected; hold it back and ask the group for
    /// the current primary.
    fn suppress_eof(&mut self, sys: &mut dyn SysApi, app: ConnId) {
        let Some(link) = self.links.get_mut(&app) else {
            return;
        };
        if let Redirection::Asking { .. } = link.redirect {
            return;
        }
        sys.emit(EventKind::Phase(Phase::FaultDetected));
        // The stream is in limbo until the group answers: writes are held
        // (the closed-loop client may fire its next request meanwhile).
        let timer = sys.set_timer(ADDRESS_QUERY_TIMEOUT, TOKEN_QUERY_TIMEOUT);
        link.redirect = Redirection::Asking {
            timer,
            resend: link.outstanding,
        };
        let reply_group = self.reply_group.clone();
        if let Some(gcs) = self.gcs.as_mut() {
            gcs.multicast(
                sys,
                SERVER_GROUP,
                &GroupMsg::AddressQuery { reply_group }.encode(),
            );
        }
    }

    fn on_gcs(&mut self, sys: &mut dyn SysApi, delivery: GcsDelivery) {
        if let GcsDelivery::Message { payload, .. } = delivery {
            match GroupMsg::decode(&payload) {
                Ok(GroupMsg::AddressReply { host, port, .. }) => {
                    // Answer the oldest pending query.
                    let Some((_, link, timer, resend)) = self.asking() else {
                        return; // late reply; timeout already fired
                    };
                    let Some(node) = crate::node_of(&host) else {
                        sys.emit(EventKind::ProtocolError("mead.client.bad_group_msg"));
                        return; // the query times out instead
                    };
                    sys.cancel_timer(timer);
                    // NEEDS_ADDRESSING pulls its fail-over notification
                    // from the group instead of having the server push it.
                    sys.emit(EventKind::Phase(Phase::FailoverNotice));
                    let to = sys.connect(Addr::new(node, Port(port)));
                    link.redirect = Redirection::Dialing { to, resend };
                }
                // Server-group chatter multicast to the reply group; only
                // the address reply is for us.
                Ok(
                    GroupMsg::AddrAdvert { .. }
                    | GroupMsg::IorAdvert { .. }
                    | GroupMsg::LaunchRequest { .. }
                    | GroupMsg::SyncList { .. }
                    | GroupMsg::AddressQuery { .. }
                    | GroupMsg::Checkpoint { .. }
                    | GroupMsg::RmState { .. },
                ) => {}
                Err(_) => {
                    sys.emit(EventKind::ProtocolError("mead.client.bad_group_msg"));
                }
            }
        }
    }

    /// Handles interceptor timers; may return an event to raise to the
    /// application (the released EOF on query timeout, or the wake-up
    /// after a finished redirect).
    fn on_timer(&mut self, sys: &mut dyn SysApi, token: u64) -> Option<Event> {
        if token >= TOKEN_REDIRECT_DONE_BASE {
            let app = *self
                .links
                .keys()
                .find(|app| TOKEN_REDIRECT_DONE_BASE + app.raw() == token)?;
            return self.finish_redirect(sys, app);
        }
        if token != TOKEN_QUERY_TIMEOUT {
            return None;
        }
        // "If the client does not receive a response from the server group
        // within a specified time (we used a 10 ms timeout) ... a CORBA
        // COMM_FAILURE exception is propagated up to the client
        // application." (section 4.2)
        let (app, link, ..) = self.asking()?;
        sys.count("mead.client.query_timeout", 1);
        link.redirect = Redirection::Settled;
        link.stream.stage_eof = true;
        // Held writes are lost with the dead connection; the released EOF
        // fails their requests with COMM_FAILURE at the ORB.
        link.pending_writes.clear();
        Some(Event::PeerClosed { conn: app })
    }
}

/// The syscall façade handed to the wrapped client application.
struct ClientFacade<'a> {
    sys: &'a mut dyn SysApi,
    st: &'a mut ClientState,
}

impl SysApi for ClientFacade<'_> {
    fn now(&self) -> SimTime {
        self.sys.now()
    }
    fn my_node(&self) -> simnet::NodeId {
        self.sys.my_node()
    }
    fn my_pid(&self) -> ProcessId {
        self.sys.my_pid()
    }

    fn listen(&mut self, port: Port) -> Result<ListenerId, SysError> {
        self.sys.listen(port)
    }

    fn unlisten(&mut self, listener: ListenerId) {
        self.sys.unlisten(listener)
    }

    fn connect(&mut self, addr: Addr) -> ConnId {
        let conn = self.sys.connect(addr);
        if addr.port != orb::NAMING_PORT {
            self.st.links.insert(conn, Box::new(Link::new(conn)));
            self.st.real_to_app.insert(conn, conn);
        }
        conn
    }

    fn write_bytes(&mut self, conn: ConnId, bytes: Bytes) -> Result<(), SysError> {
        let Some(link) = self.st.links.get_mut(&conn) else {
            return self.sys.write_bytes(conn, bytes);
        };
        if self.st.scheme == RecoveryScheme::NeedsAddressing {
            // Track the in-flight request id so a fabricated reply can
            // name it. This light parse is the scheme's ~8 % overhead.
            // It only peeks: the bytes go out below whatever it finds, so
            // once the application's output stops framing there is
            // nothing left to track and the raw remainder is dropped.
            link.stream.outgoing.push(bytes.clone());
            while let Some(Scanned::Frame(frame)) = link.stream.outgoing.scan() {
                if frame.kind == FrameKind::Giop && frame.msg_type() == MsgType::Request as u8 {
                    self.sys.charge_cpu(REQUEST_TRACK_CPU);
                    if let Ok(MessageView::Request(req)) = MessageView::parse(&frame.bytes) {
                        if req.response_expected {
                            link.outstanding = Some(req.request_id);
                        }
                    }
                }
            }
        }
        if link.redirecting() {
            // Hold writes until the replacement connection is up.
            link.pending_writes.push(bytes);
            return Ok(());
        }
        self.sys.write_bytes(link.real, bytes)
    }

    fn read(&mut self, conn: ConnId, max: usize) -> Result<ReadOutcome, SysError> {
        match self.st.links.get_mut(&conn) {
            Some(link) => Ok(link.stream.read(max)),
            None => self.sys.read(conn, max),
        }
    }

    fn close(&mut self, conn: ConnId) {
        let Some(link) = self.st.links.get_mut(&conn) else {
            self.sys.close(conn);
            return;
        };
        self.st.real_to_app.remove(&link.real);
        self.sys.close(link.real);
        if let Redirection::Dialing { to, .. } = link.redirect {
            link.redirect = Redirection::Orphaned { to };
        } else {
            self.st.links.remove(&conn);
        }
    }

    fn set_timer(&mut self, after: SimDuration, token: u64) -> TimerId {
        debug_assert!(
            !is_intercept_token(token),
            "application timer tokens must stay below the interceptor namespace"
        );
        self.sys.set_timer(after, token)
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        self.sys.cancel_timer(timer)
    }

    fn spawn(
        &mut self,
        node: simnet::NodeId,
        name: &str,
        factory: ProcessFactory,
    ) -> Result<ProcessId, SysError> {
        self.sys.spawn(node, name, factory)
    }

    fn exit(&mut self, reason: ExitReason) {
        self.sys.exit(reason)
    }

    fn charge_cpu(&mut self, cost: SimDuration) {
        self.sys.charge_cpu(cost)
    }

    fn rng(&mut self) -> &mut SimRng {
        self.sys.rng()
    }

    fn tag_conn(&mut self, conn: ConnId, tag: &'static str) {
        self.sys.tag_conn(conn, tag)
    }

    fn count(&mut self, counter: &'static str, delta: u64) {
        self.sys.count(counter, delta)
    }

    fn emit(&mut self, kind: EventKind) {
        self.sys.emit(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::testkit::MockSys;
    use simnet::NodeId;

    fn dead_port() -> Addr {
        Addr::new(NodeId::from_index(1), Port(2810))
    }

    /// Dials `addr` at start and again after each of `left` refusals,
    /// and — as `ClientOrb` does — drops each refused connection
    /// unclosed.
    struct Redialer {
        addr: Addr,
        left: u32,
    }

    impl Process for Redialer {
        fn on_start(&mut self, sys: &mut dyn SysApi) {
            sys.connect(self.addr);
        }

        fn on_event(&mut self, sys: &mut dyn SysApi, event: Event) {
            if matches!(event, Event::ConnRefused { .. }) && self.left > 0 {
                self.left -= 1;
                sys.connect(self.addr);
            }
        }
    }

    #[test]
    fn a_naming_service_connection_gets_no_link() {
        let naming = Addr::new(NodeId::from_index(0), orb::NAMING_PORT);
        let mut sys = MockSys::new(NodeId::from_index(4));
        let mut interceptor = ClientInterceptor::new(
            RecoveryScheme::NeedsAddressing,
            Box::new(Redialer {
                addr: naming,
                left: 0,
            }),
        );
        interceptor.on_start(&mut sys);
        assert_eq!(sys.connected().last().map(|&(_, addr)| addr), Some(naming));
        assert!(interceptor.st.links.is_empty());
        assert!(interceptor.st.real_to_app.is_empty());
    }

    /// Writes nothing, reads nothing; closes its connection on the first
    /// application timer.
    struct Closer {
        addr: Addr,
        conn: Option<ConnId>,
    }

    impl Process for Closer {
        fn on_start(&mut self, sys: &mut dyn SysApi) {
            self.conn = Some(sys.connect(self.addr));
        }

        fn on_event(&mut self, sys: &mut dyn SysApi, event: Event) {
            if let (Event::TimerFired { .. }, Some(conn)) = (event, self.conn.take()) {
                sys.close(conn);
            }
        }
    }

    /// The application closes a stream while its redirect is dialling:
    /// the dial, once established, is hung up instead of staying open at
    /// the new replica, and no redirect is charged or traced.
    #[test]
    fn an_orphaned_redirect_dial_is_hung_up() {
        let replica = Addr::new(NodeId::from_index(1), Port(20000));
        let mut sys = MockSys::new(NodeId::from_index(4));
        let mut interceptor = ClientInterceptor::new(
            RecoveryScheme::MeadFailover,
            Box::new(Closer {
                addr: replica,
                conn: None,
            }),
        );
        interceptor.on_start(&mut sys);
        let (conn, _) = *sys.connected().last().expect("the app dialled");
        sys.push_incoming(
            conn,
            &FailoverNotice::new("node2", 20001, "replica/0/9").encode(),
        );
        interceptor.on_event(&mut sys, Event::DataReadable { conn });
        let (dial, addr) = *sys.connected().last().expect("the redirect dialled");
        assert_eq!(addr, Addr::new(NodeId::from_index(2), Port(20001)));
        let tick = sys.set_timer(SimDuration::from_millis(1), 1);
        interceptor.on_event(
            &mut sys,
            Event::TimerFired {
                timer: tick,
                token: 1,
            },
        );
        assert!(sys.is_closed(conn), "the application closed its stream");
        let cpu = sys.cpu_charged();
        interceptor.on_event(&mut sys, Event::ConnEstablished { conn: dial });
        assert!(sys.is_closed(dial), "the orphaned dial must be hung up");
        assert_eq!(sys.cpu_charged(), cpu, "no redirect is charged");
        let traced = |kind: &EventKind| matches!(kind, EventKind::Phase(Phase::ClientRedirect));
        assert!(
            !sys.emitted().iter().any(|(_, kind)| traced(kind)),
            "no redirect is traced"
        );
        assert!(interceptor.st.links.is_empty());
        assert!(interceptor.st.real_to_app.is_empty());
    }

    #[test]
    fn refused_connects_leave_no_link() {
        const REFUSALS: u32 = 10;
        let mut sys = MockSys::new(NodeId::from_index(4));
        let mut interceptor = ClientInterceptor::new(
            RecoveryScheme::MeadFailover,
            Box::new(Redialer {
                addr: dead_port(),
                left: REFUSALS - 1,
            }),
        );
        interceptor.on_start(&mut sys);
        for _ in 0..REFUSALS {
            let (conn, addr) = *sys.connected().last().expect("the app dialled");
            assert_eq!(addr, dead_port());
            interceptor.on_event(&mut sys, Event::ConnRefused { conn });
        }
        assert_eq!(
            sys.connected().len(),
            1 + REFUSALS as usize,
            "GCS + redials"
        );
        assert!(interceptor.st.links.is_empty());
        assert!(interceptor.st.real_to_app.is_empty());
    }
}

//! The client-side MEAD Interceptor.
//!
//! Wraps an unmodified client process (workload + client ORB). Per
//! section 3.1, "for client sockets, we use the read() call to filter and
//! interpret the custom MEAD messages that we piggyback onto regular GIOP
//! messages. We use the writev() call to redirect client requests to
//! non-faulty server replicas in the event of proactive fail-over."
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

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use bytes::Bytes;
use giop::{Endian, FrameKind, Message, MessageView, MsgType, ReplyBody, ReplyMessage};
use groupcomm::{GcsClient, GcsDelivery};
use obs::{EventKind, Phase};
use simnet::{
    Addr, ConnId, Event, ExitReason, ListenerId, Port, Process, ProcessFactory, ProcessId,
    ReadOutcome, SimDuration, SimRng, SimTime, SysApi, SysError, TimerId,
};

use crate::config::{MeadConfig, RecoveryScheme};
use crate::intercept::common::{
    is_intercept_token, Scanned, Stream, TOKEN_GCS, TOKEN_QUERY_TIMEOUT, TOKEN_REDIRECT_DONE_BASE,
};
use crate::messages::{FailoverNotice, GroupMsg};

/// Why a new connection is being opened by the interceptor.
#[derive(Debug)]
enum RedirectKind {
    /// Triggered by a piggybacked MEAD fail-over notice.
    MeadNotice,
    /// Triggered by an `AddressReply` after a suppressed EOF; carries the
    /// in-flight request to resurrect, if any.
    NeedsAddressing { outstanding: Option<u32> },
}

#[derive(Debug)]
struct Redirect {
    app: ConnId,
    old_real: ConnId,
    kind: RedirectKind,
}

/// State of a suppressed EOF awaiting an address reply.
#[derive(Debug)]
struct PendingQuery {
    app: ConnId,
    outstanding: Option<u32>,
    timer: TimerId,
}

/// The client-side interceptor process.
pub struct ClientInterceptor {
    inner: Box<dyn Process>,
    st: ClientState,
}

struct ClientState {
    /// Shared by every client interceptor of a scenario.
    cfg: Rc<MeadConfig>,
    gcs: Option<GcsClient>,
    reply_group: String,
    /// app conn id -> stream. Boxed: a client holds one or two streams,
    /// and a B-tree leaf reserves room for eleven values inline.
    streams: BTreeMap<ConnId, Box<Stream>>,
    /// real conn id -> app conn id (diverges after redirects).
    real_to_app: BTreeMap<ConnId, ConnId>,
    /// new real conn -> redirect bookkeeping.
    redirects: BTreeMap<ConnId, Redirect>,
    /// Suppressed EOFs awaiting AddressReply, keyed by app conn.
    queries: BTreeMap<ConnId, PendingQuery>,
    /// Per-stream in-flight request (NEEDS_ADDRESSING bookkeeping).
    outstanding: BTreeMap<ConnId, u32>,
    /// Redirects whose dup2 work is finishing (timer token offset ->
    /// (app conn, request to resurrect)).
    finishing: BTreeMap<u64, (ConnId, Option<u32>)>,
    next_finish_token: u64,
    /// App conns whose redirect finished but which have not yet staged a
    /// GIOP reply from the *new* replica; the next such reply closes the
    /// paper's fail-over window (`FirstReplyAfterFailover`).
    awaiting_first_reply: BTreeSet<ConnId>,
}

impl ClientInterceptor {
    /// Wraps `inner` (an unmodified client process). A scenario hands
    /// every client the same `Rc<MeadConfig>`; a plain config works too.
    pub fn new(cfg: impl Into<Rc<MeadConfig>>, inner: Box<dyn Process>) -> Self {
        ClientInterceptor {
            inner,
            st: ClientState {
                cfg: cfg.into(),
                gcs: None,
                reply_group: String::new(),
                streams: BTreeMap::new(),
                real_to_app: BTreeMap::new(),
                redirects: BTreeMap::new(),
                queries: BTreeMap::new(),
                outstanding: BTreeMap::new(),
                finishing: BTreeMap::new(),
                next_finish_token: 0,
                awaiting_first_reply: BTreeSet::new(),
            },
        }
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
                    let mut facade = ClientFacade {
                        sys,
                        st: &mut self.st,
                    };
                    self.inner.on_event(&mut facade, ev);
                }
                return;
            }
        }
        match event {
            Event::ConnEstablished { conn } if self.st.redirects.contains_key(&conn) => {
                if let Some(ev) = self.st.complete_redirect(sys, conn) {
                    let mut facade = ClientFacade {
                        sys,
                        st: &mut self.st,
                    };
                    self.inner.on_event(&mut facade, ev);
                }
            }
            Event::ConnRefused { conn } if self.st.redirects.contains_key(&conn) => {
                // Redirect target is gone too: release the failure to the
                // application.
                let redirect = self.st.redirects.remove(&conn).expect("checked");
                sys.count("mead.client.redirect_refused", 1);
                if let Some(stream) = self.st.streams.get_mut(&redirect.app) {
                    stream.redirecting = false;
                    stream.stage_eof = true;
                }
                let mut facade = ClientFacade {
                    sys,
                    st: &mut self.st,
                };
                self.inner
                    .on_event(&mut facade, Event::PeerClosed { conn: redirect.app });
            }
            Event::DataReadable { conn } => {
                let Some(&app) = self.st.real_to_app.get(&conn) else {
                    let mut facade = ClientFacade {
                        sys,
                        st: &mut self.st,
                    };
                    self.inner.on_event(&mut facade, event);
                    return;
                };
                let staged = self.st.pump_incoming(sys, conn, app);
                if staged {
                    let mut facade = ClientFacade {
                        sys,
                        st: &mut self.st,
                    };
                    self.inner
                        .on_event(&mut facade, Event::DataReadable { conn: app });
                }
            }
            Event::PeerClosed { conn } => {
                let Some(&app) = self.st.real_to_app.get(&conn) else {
                    let mut facade = ClientFacade {
                        sys,
                        st: &mut self.st,
                    };
                    self.inner.on_event(&mut facade, event);
                    return;
                };
                if self.st.cfg.scheme == RecoveryScheme::NeedsAddressing {
                    // Suppress the failure and go ask the group
                    // (section 4.2).
                    self.st.suppress_eof(sys, app);
                    return;
                }
                if let Some(stream) = self.st.streams.get_mut(&app) {
                    stream.stage_eof = true;
                }
                let mut facade = ClientFacade {
                    sys,
                    st: &mut self.st,
                };
                self.inner
                    .on_event(&mut facade, Event::PeerClosed { conn: app });
            }
            other => {
                // ConnEstablished / ConnRefused for app-initiated conns
                // (identity-mapped), app timers, accepts (clients don't
                // listen) — all pass through with translation where known.
                let refused = match &other {
                    Event::ConnRefused { conn } => Some(*conn),
                    _ => None,
                };
                let translated = match other {
                    Event::ConnEstablished { conn } => Event::ConnEstablished {
                        conn: self.st.real_to_app.get(&conn).copied().unwrap_or(conn),
                    },
                    Event::ConnRefused { conn } => Event::ConnRefused {
                        conn: self.st.real_to_app.get(&conn).copied().unwrap_or(conn),
                    },
                    ev => ev,
                };
                let mut facade = ClientFacade {
                    sys,
                    st: &mut self.st,
                };
                self.inner.on_event(&mut facade, translated);
                if let Some(conn) = refused {
                    // The ORB drops a refused connection without closing
                    // it, so its stream is forgotten here or never.
                    if let Some(app) = self.st.real_to_app.remove(&conn) {
                        self.st.streams.remove(&app);
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
    /// Drains the real connection, strips MEAD frames, stages GIOP frames.
    /// Returns whether application-visible bytes were staged.
    fn pump_incoming(&mut self, sys: &mut dyn SysApi, real: ConnId, app: ConnId) -> bool {
        let Ok(read) = sys.read(real, usize::MAX) else {
            return false;
        };
        let Some(stream) = self.streams.get_mut(&app) else {
            return false;
        };
        if read.eof && self.cfg.scheme != RecoveryScheme::NeedsAddressing {
            stream.stage_eof = true;
        }
        stream.incoming.push(read.data);
        let mut staged = false;
        while let Some(scanned) = self.streams.get_mut(&app).and_then(|s| s.incoming.scan()) {
            let frame = match scanned {
                Scanned::Frame(frame) => frame,
                Scanned::Raw(raw, error) => {
                    // Out of sync: stop interpreting this stream and let
                    // the ORB see (and close) it.
                    if error.is_some() {
                        sys.count("mead.client.desync", 1);
                    }
                    if let Some(stream) = self.streams.get_mut(&app) {
                        stream.stage_bytes(raw);
                        staged = true;
                    }
                    continue;
                }
            };
            match frame.kind {
                FrameKind::Mead => {
                    // Strip and act: this is the proactive fail-over path.
                    match FailoverNotice::decode(&frame) {
                        Ok(notice) => self.begin_mead_redirect(sys, app, &notice),
                        Err(_) => {
                            sys.count("mead.client.bad_notice", 1);
                        }
                    }
                }
                FrameKind::Giop => {
                    if frame.msg_type() == MsgType::Reply as u8 {
                        // A reply settles the in-flight request.
                        self.outstanding.remove(&app);
                        // A reply read off the redirected connection closes
                        // the fail-over window. Replies held during the
                        // redirect came from the old replica and do not
                        // count.
                        if self
                            .streams
                            .get(&app)
                            .map(|s| !s.redirecting)
                            .unwrap_or(false)
                            && self.awaiting_first_reply.remove(&app)
                        {
                            sys.emit(EventKind::Phase(Phase::FirstReplyAfterFailover));
                        }
                    }
                    if let Some(stream) = self.streams.get_mut(&app) {
                        if stream.redirecting {
                            // Redirect in progress (triggered by a notice
                            // earlier in this very read): hold the reply
                            // until the new connection is in place, as the
                            // paper's synchronous in-read() redirect does.
                            stream.held_frames.push(frame);
                        } else {
                            stream.stage_frame(frame);
                            staged = true;
                        }
                    }
                }
            }
        }
        staged
    }

    /// Starts the dup2-style redirect after a fail-over notice.
    fn begin_mead_redirect(&mut self, sys: &mut dyn SysApi, app: ConnId, notice: &FailoverNotice) {
        let Some(node) = crate::node_of(&notice.host) else {
            sys.count("mead.client.bad_notice", 1);
            return;
        };
        let Some(stream) = self.streams.get_mut(&app) else {
            return;
        };
        if stream.redirecting {
            return; // already moving
        }
        stream.redirecting = true;
        sys.count("mead.client.redirects_started", 1);
        let old_real = stream.real;
        let new_real = sys.connect(Addr::new(node, Port(notice.port)));
        self.redirects.insert(
            new_real,
            Redirect {
                app,
                old_real,
                kind: RedirectKind::MeadNotice,
            },
        );
    }

    /// First half of finishing a redirect, run when the replacement
    /// connection establishes: swap the descriptor mapping (the `dup2()`),
    /// close the old connection, and flush buffered writes. The
    /// interceptor then stays "busy" for the redirect cost; held replies
    /// and fabricated retransmission triggers are released when the
    /// completion timer fires ([`finish_redirect`](Self::finish_redirect)),
    /// so the cost is visible in the round-trip the client measures —
    /// matching the paper's synchronous in-`read()` redirect.
    fn complete_redirect(&mut self, sys: &mut dyn SysApi, new_real: ConnId) -> Option<Event> {
        let redirect = self.redirects.remove(&new_real)?;
        sys.charge_cpu(self.cfg.costs.redirect_cpu);
        sys.count("mead.client.redirects_completed", 1);
        sys.mark("mead.client.redirect_at");
        sys.emit(EventKind::Phase(Phase::ClientRedirect));
        let app = redirect.app;
        let stream = self.streams.get_mut(&app)?;
        debug_assert_eq!(stream.app, app, "streams are keyed by their app-visible id");
        stream.real = new_real;
        self.real_to_app.remove(&redirect.old_real);
        self.real_to_app.insert(new_real, app);
        sys.close(redirect.old_real);
        let outstanding = match redirect.kind {
            RedirectKind::MeadNotice => None,
            RedirectKind::NeedsAddressing { outstanding } => outstanding,
        };
        let token = TOKEN_REDIRECT_DONE_BASE + self.next_finish_token;
        self.next_finish_token += 1;
        self.finishing.insert(token, (app, outstanding));
        sys.set_timer(self.cfg.costs.redirect_cpu, token);
        None
    }

    /// Second half of a redirect, after the dup2 work: release held
    /// frames, flush buffered writes, fabricate the retransmission trigger
    /// if a request was in flight, and wake the application.
    fn finish_redirect(&mut self, sys: &mut dyn SysApi, token: u64) -> Option<Event> {
        let (app, outstanding) = self.finishing.remove(&token)?;
        self.awaiting_first_reply.insert(app);
        let stream = self.streams.get_mut(&app)?;
        stream.redirecting = false;
        let new_real = stream.real;
        for queued in std::mem::take(&mut stream.pending_writes) {
            let _ = sys.write_bytes(new_real, queued);
        }
        for frame in std::mem::take(&mut stream.held_frames) {
            stream.stage_frame(frame);
        }
        let mut wake = stream.staged_len() > 0;
        if let Some(request_id) = outstanding {
            // Fabricate the NEEDS_ADDRESSING_MODE reply that makes the ORB
            // resend over the redirected connection.
            sys.charge_cpu(self.cfg.costs.fabricate_cpu);
            sys.count("mead.client.fabricated_needs_addr", 1);
            let fab = Message::Reply(ReplyMessage {
                request_id,
                body: ReplyBody::NeedsAddressingMode(0),
            })
            .encode(Endian::Big);
            let stream = self.streams.get_mut(&app)?;
            stream.stage_bytes(fab);
            wake = true;
        }
        wake.then_some(Event::DataReadable { conn: app })
    }

    /// NEEDS_ADDRESSING: EOF detected; hold it back and ask the group for
    /// the current primary.
    fn suppress_eof(&mut self, sys: &mut dyn SysApi, app: ConnId) {
        if self.queries.contains_key(&app) {
            return;
        }
        sys.count("mead.client.eof_suppressed", 1);
        sys.mark("mead.client.suppressed_at");
        sys.emit(EventKind::Phase(Phase::FaultDetected));
        // The stream is in limbo until the group answers: hold any writes
        // (the closed-loop client may fire its next request meanwhile).
        if let Some(stream) = self.streams.get_mut(&app) {
            stream.redirecting = true;
        }
        let outstanding = self.outstanding.get(&app).copied();
        let timer = sys.set_timer(self.cfg.address_query_timeout, TOKEN_QUERY_TIMEOUT);
        self.queries.insert(
            app,
            PendingQuery {
                app,
                outstanding,
                timer,
            },
        );
        let group = self.cfg.server_group.clone();
        let reply_group = self.reply_group.clone();
        if let Some(gcs) = self.gcs.as_mut() {
            gcs.multicast(
                sys,
                &group,
                &GroupMsg::AddressQuery { reply_group }.encode(),
            );
        }
    }

    fn on_gcs(&mut self, sys: &mut dyn SysApi, delivery: GcsDelivery) {
        if let GcsDelivery::Message { payload, .. } = delivery {
            match GroupMsg::decode(&payload) {
                Ok(GroupMsg::AddressReply { host, port, .. }) => {
                    // Answer the oldest pending query.
                    let Some((&app, _)) = self.queries.iter().next() else {
                        return; // late reply; timeout already fired
                    };
                    let query = self.queries.remove(&app).expect("keyed");
                    sys.cancel_timer(query.timer);
                    // NEEDS_ADDRESSING pulls its fail-over notification
                    // from the group instead of having the server push it.
                    sys.emit(EventKind::Phase(Phase::FailoverNotice));
                    let Some(node) = crate::node_of(&host) else {
                        return;
                    };
                    let Some(stream) = self.streams.get_mut(&app) else {
                        return;
                    };
                    stream.redirecting = true;
                    let old_real = stream.real;
                    let new_real = sys.connect(Addr::new(node, Port(port)));
                    self.redirects.insert(
                        new_real,
                        Redirect {
                            app,
                            old_real,
                            kind: RedirectKind::NeedsAddressing {
                                outstanding: query.outstanding,
                            },
                        },
                    );
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
                    sys.count("mead.client.bad_group_msg", 1);
                }
            }
        }
    }

    /// Handles interceptor timers; may return an event to raise to the
    /// application (the released EOF on query timeout, or the wake-up
    /// after a finished redirect).
    fn on_timer(&mut self, sys: &mut dyn SysApi, token: u64) -> Option<Event> {
        if token >= TOKEN_REDIRECT_DONE_BASE {
            return self.finish_redirect(sys, token);
        }
        if token != TOKEN_QUERY_TIMEOUT {
            return None;
        }
        // "If the client does not receive a response from the server group
        // within a specified time (we used a 10 ms timeout) ... a CORBA
        // COMM_FAILURE exception is propagated up to the client
        // application." (section 4.2)
        let (&app, _) = self.queries.iter().next()?;
        let query = self.queries.remove(&app).expect("keyed");
        sys.count("mead.client.query_timeout", 1);
        let stream = self.streams.get_mut(&query.app)?;
        stream.stage_eof = true;
        stream.redirecting = false;
        // Held writes are lost with the dead connection; the released EOF
        // fails their requests with COMM_FAILURE at the ORB.
        stream.pending_writes.clear();
        Some(Event::PeerClosed { conn: query.app })
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
        self.st.streams.insert(conn, Box::new(Stream::new(conn)));
        self.st.real_to_app.insert(conn, conn);
        conn
    }

    fn write_bytes(&mut self, conn: ConnId, bytes: Bytes) -> Result<(), SysError> {
        let Some(stream) = self.st.streams.get_mut(&conn) else {
            return self.sys.write_bytes(conn, bytes);
        };
        if self.st.cfg.scheme == RecoveryScheme::NeedsAddressing {
            // Track the in-flight request id so a fabricated reply can
            // name it. This light parse is the scheme's ~8 % overhead.
            // It only peeks: the bytes go out below whatever it finds, so
            // once the application's output stops framing there is
            // nothing left to track and the raw remainder is dropped.
            stream.outgoing.push(bytes.clone());
            while let Some(Scanned::Frame(frame)) = stream.outgoing.scan() {
                if frame.kind == FrameKind::Giop && frame.msg_type() == MsgType::Request as u8 {
                    self.sys.charge_cpu(self.st.cfg.costs.request_track_cpu);
                    if let Ok(MessageView::Request(req)) = MessageView::parse(&frame.bytes) {
                        if req.response_expected {
                            self.st.outstanding.insert(conn, req.request_id);
                        }
                    }
                }
            }
        }
        if stream.redirecting {
            // Hold writes until the replacement connection is up.
            stream.pending_writes.push(bytes);
            return Ok(());
        }
        let real = stream.real;
        self.sys.write_bytes(real, bytes)
    }

    fn read(&mut self, conn: ConnId, max: usize) -> Result<ReadOutcome, SysError> {
        match self.st.streams.get_mut(&conn) {
            Some(stream) => Ok(stream.read(max)),
            None => self.sys.read(conn, max),
        }
    }

    fn close(&mut self, conn: ConnId) {
        if let Some(stream) = self.st.streams.remove(&conn) {
            self.st.real_to_app.remove(&stream.real);
            self.st.outstanding.remove(&conn);
            self.st.queries.remove(&conn);
            self.st.awaiting_first_reply.remove(&conn);
            self.sys.close(stream.real);
        } else {
            self.sys.close(conn);
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

    fn mark(&mut self, series: &'static str) {
        self.sys.mark(series)
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

    /// Dials a dead port at start and again after every refusal, and —
    /// as `ClientOrb` does — drops each refused connection unclosed.
    struct Redialer {
        left: u32,
    }

    impl Process for Redialer {
        fn on_start(&mut self, sys: &mut dyn SysApi) {
            sys.connect(dead_port());
        }

        fn on_event(&mut self, sys: &mut dyn SysApi, event: Event) {
            if matches!(event, Event::ConnRefused { .. }) && self.left > 0 {
                self.left -= 1;
                sys.connect(dead_port());
            }
        }
    }

    #[test]
    fn refused_connects_leave_no_stream() {
        const REFUSALS: u32 = 10;
        let mut sys = MockSys::new(NodeId::from_index(4));
        let mut interceptor = ClientInterceptor::new(
            MeadConfig::builder(RecoveryScheme::MeadFailover).build(),
            Box::new(Redialer { left: REFUSALS - 1 }),
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
        assert!(interceptor.st.streams.is_empty());
        assert!(interceptor.st.real_to_app.is_empty());
    }
}

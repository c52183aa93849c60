//! The server-side MEAD Interceptor with its embedded Proactive
//! Fault-Tolerance Manager.
//!
//! Wraps an *unmodified* server process (ORB + servants + naming
//! registration) exactly as the paper's `LD_PRELOAD` library wraps a TAO
//! server: the application's `listen`/`connect`/`read`/`write`/`close`
//! all pass through this layer, which
//!
//! * classifies sockets (accepted = client-side traffic, initiated =
//!   outbound traffic such as the Naming Service registration),
//! * hosts the memory-leak fault injector (section 5.1 injects the leak
//!   "within the Interceptor") and the two-step threshold monitor, checked
//!   on the write path (the paper rejects a polling thread, section 3.1),
//! * joins the replica group over GCS, advertises its address (from the
//!   intercepted `listen()`, section 4.3) and its IORs (from the
//!   intercepted Naming Service registration, section 4.1),
//! * checkpoints to the backups: a replica with state holds each client
//!   reply until the checkpoint covering it has self-delivered
//!   (commit-before-ack); one without sends the paper's fixed-size
//!   checkpoints,
//! * past the migrate threshold, redirects clients by the configured
//!   scheme: replacing replies with `LOCATION_FORWARD`, or piggybacking
//!   MEAD fail-over notices onto replies, then exits gracefully once
//!   every client has moved and, for a replica with state, its successor
//!   is warm, and
//! * answers `AddressQuery` multicasts when it is the first live replica
//!   (section 4.2).

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use faults::{
    AdaptivePredictor, MemoryLeak, PressureKind, ResourceMonitor, ResourcePressure,
    ThresholdAction, LEAK_INTERVAL, PRESSURE_TICK,
};
use giop::{
    Endian, Frame, FrameKind, Message, MessageView, MsgType, ObjectKey, ReplyBody, ReplyMessage,
};
use groupcomm::{GcsClient, GcsDelivery};
use obs::{EventKind, Phase};
use orb::CounterState;
use simnet::{
    ConnId, Event, ExitReason, ListenerId, Port, Process, ProcessFactory, ProcessId, ReadOutcome,
    SimDuration, SimRng, SimTime, SysApi, SysError, TimerId,
};

use crate::config::{MeadConfig, RecoveryScheme, Trigger};
use crate::directory::{replica_member_name, MemberName, ReplicaDirectory, Slot, SERVER_GROUP};
use crate::intercept::common::{
    is_intercept_token, Scanned, Stream, FABRICATE_CPU, TOKEN_CHECKPOINT, TOKEN_DRAIN, TOKEN_GCS,
    TOKEN_LEAK, TOKEN_PRESSURE_ARM, TOKEN_PRESSURE_TICK,
};
use crate::messages::{FailoverNotice, GroupMsg};
use crate::replica::ReplicaApp;

/// Full GIOP header+body parse and table upkeep, per message
/// (LOCATION_FORWARD scheme; charged on both request and reply paths to
/// track `request_id`s and object keys): the scheme's ≈90 % RTT overhead
/// over the paper's 0.75 ms baseline (DESIGN §7).
pub const GIOP_PARSE_CPU: SimDuration = SimDuration::from_micros(330);
/// Frame-magic/length scan (MEAD scheme), the scheme's ≈3 % RTT overhead.
/// Charged once per invocation on the server's reply path; it covers both
/// interceptor halves, since the client half's work happens between
/// reply arrival and delivery and is folded here for observability.
const FRAME_SCAN_CPU: SimDuration = SimDuration::from_micros(22);
/// IOR-table lookup via the 16-bit object-key hash, per forward.
const IOR_LOOKUP_CPU: SimDuration = SimDuration::from_micros(15);
/// The first-listed replica's work to answer an `AddressQuery`
/// (section 4.2): consulting the membership listing and re-multicasting
/// through the group-communication stack.
pub const ADDRESS_REPLY_CPU: SimDuration = SimDuration::from_micros(700);
/// Checkpoint payload size of a replica without state: the paper's
/// stateless application, whose fixed-size checkpoints make Figure 5's
/// baseline bandwidth.
const CHECKPOINT_BYTES: usize = 128;
/// How often the first-listed replica without state sends its
/// fixed-size checkpoint: the paper's warm-passive cadence.
const CHECKPOINT_INTERVAL: SimDuration = SimDuration::from_millis(250);
/// How often the acting primary with state checkpoints state that no
/// checkpoint covers yet (each batch of replies sends its own).
const STATE_CHECKPOINT_INTERVAL: SimDuration = SimDuration::from_millis(50);
/// How long a migrating replica waits after notifying all clients before
/// exiting gracefully.
const DRAIN_DELAY: SimDuration = SimDuration::from_millis(5);
/// How far the launch threshold trails the migrate threshold: the
/// paper's 80 %/90 % pair.
const LAUNCH_GAP: f64 = 0.1;

/// Where a replica stands in the paper's two-step rejuvenation
/// (section 3.2). It only moves forward: a replacement is a new process
/// and starts over at `Serving`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Rejuvenation {
    /// No step taken yet.
    Serving,
    /// A replacement was requested from the Recovery Manager.
    Launched,
    /// Clients are being told to move to the next replica.
    Migrating,
    /// Every client moved and the successor is warm; the graceful exit
    /// is scheduled.
    Draining,
}

/// One accepted client connection: its stream plus what the interceptor
/// tracks about that client.
#[derive(Clone, Default)]
struct ClientConn {
    stream: Stream,
    /// LOCATION_FORWARD bookkeeping: request_id → object key harvested
    /// from parsed requests.
    request_keys: BTreeMap<u32, ObjectKey>,
    /// Already told to move away, or gone: owed no migration notice.
    notified: bool,
}

/// The server-side interceptor process: `Interceptor(app)` in Figure 1.
pub struct ServerInterceptor {
    inner: Box<dyn Process>,
    st: ServerState,
    label: String,
}

#[derive(Clone)]
struct ServerState {
    cfg: MeadConfig,
    slot: Slot,
    member: MemberName,
    gcs: Option<GcsClient>,
    dir: ReplicaDirectory,
    leak: Option<MemoryLeak>,
    /// Resource-pressure fault (CPU ramp / fd leak); armed by timer at
    /// `cfg.pressure.activate_at` if this instance started before then.
    pressure: Option<ResourcePressure>,
    /// Last pressure decile traced (emit `resource_pressure` only on
    /// decile crossings, not every tick).
    pressure_decile: u32,
    monitor: ResourceMonitor,
    adaptive: AdaptivePredictor,
    /// How far this replica's rejuvenation has got.
    phase: Rejuvenation,
    listen_port: Option<Port>,
    app_listeners: BTreeSet<ListenerId>,
    client_streams: BTreeMap<ConnId, ClientConn>,
    out_streams: BTreeMap<ConnId, Stream>,
    /// IORs captured from the app's Naming Service registrations, one per
    /// object key.
    my_iors: Vec<giop::Ior>,
    /// The application state this replica checkpoints and restores — the
    /// reproduction's stand-in for MEAD's checkpointing library. The
    /// application stays MEAD-unaware: whoever builds the replica hands
    /// the one [`CounterState`] to the servant and, here, to the
    /// interceptor. A replica with state commits before it acknowledges;
    /// one without sends the paper's fixed-size checkpoints.
    state: Option<Rc<CounterState>>,
    /// Has served at least one client request (making this instance the
    /// acting primary for warm-passive purposes).
    ever_served: bool,
    /// Served a request since the last checkpoint (state is dirty).
    served_since_checkpoint: bool,
    /// Our own checkpoints multicast and not yet self-delivered.
    checkpoints_in_flight: usize,
    /// The successor in the view (a member of our slot with another pid:
    /// the replacement a launch request brings up) and how many of our
    /// own checkpoints must still self-deliver before it counts as warm.
    successor: Option<(MemberName, usize)>,
    /// We have seen ourselves in a view and re-advertised once.
    advertised_in_view: bool,
    /// Commit-before-ack (a replica with state): client replies written
    /// by the app since the last checkpoint, waiting for the checkpoint
    /// that covers them.
    current_batch: Vec<(ConnId, Bytes)>,
    /// One entry per checkpoint multicast still in flight; its batch is
    /// released when our own checkpoint self-delivers through the total
    /// order (so the state the replies acknowledge is durable at the
    /// backups first).
    held_replies: VecDeque<Vec<(ConnId, Bytes)>>,
}

impl ServerInterceptor {
    /// Wraps `inner` (an unmodified server process) for replica `slot`.
    pub fn new(cfg: MeadConfig, slot: Slot, inner: Box<dyn Process>) -> Self {
        let leak = cfg.leak.clone().map(MemoryLeak::new);
        let pressure = cfg.pressure.clone().map(ResourcePressure::new);
        let migrate = cfg.migrate_threshold;
        let monitor = ResourceMonitor {
            launch: (migrate - LAUNCH_GAP).clamp(0.01, migrate),
            migrate,
        };
        ServerInterceptor {
            label: format!("mead-server-interceptor/{slot}"),
            inner,
            st: ServerState {
                cfg,
                slot,
                member: MemberName::new(""),
                gcs: None,
                dir: ReplicaDirectory::new(),
                leak,
                pressure,
                pressure_decile: 0,
                monitor,
                adaptive: AdaptivePredictor::new(),
                phase: Rejuvenation::Serving,
                listen_port: None,
                app_listeners: BTreeSet::new(),
                client_streams: BTreeMap::new(),
                out_streams: BTreeMap::new(),
                my_iors: Vec::new(),
                state: None,
                ever_served: false,
                served_since_checkpoint: false,
                checkpoints_in_flight: 0,
                successor: None,
                advertised_in_view: false,
                current_batch: Vec::new(),
                held_replies: VecDeque::new(),
            },
        }
    }
}

impl ServerInterceptor {
    /// Gives the replica its application state: the acting primary's
    /// checkpoints carry its [`CounterState::snapshot`], backups restore
    /// the primary's into it, and every client reply waits until the
    /// checkpoint covering it has self-delivered (commit-before-ack).
    pub fn with_state(mut self, state: Rc<CounterState>) -> Self {
        self.st.state = Some(state);
        self
    }

    /// The application state, if the replica has any.
    pub fn state(&self) -> Option<&Rc<CounterState>> {
        self.st.state.as_ref()
    }

    /// This replica's directory of the group: view, addresses, IORs.
    pub fn directory(&self) -> &ReplicaDirectory {
        &self.st.dir
    }
}

impl Process for ServerInterceptor {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.st.member = replica_member_name(self.st.slot, sys.my_pid().raw());
        let mut gcs = GcsClient::new(self.st.member.as_str().to_string(), TOKEN_GCS);
        gcs.start(sys);
        gcs.join(sys, SERVER_GROUP);
        self.st.gcs = Some(gcs);
        if self.st.leak.is_some() {
            sys.set_timer(LEAK_INTERVAL, TOKEN_LEAK);
        }
        if let Some(pressure) = self.st.pressure.as_ref() {
            let activate_at = pressure.config().activate_at;
            if activate_at >= sys.now() {
                sys.set_timer(activate_at - sys.now(), TOKEN_PRESSURE_ARM);
            } else {
                // Started after the activation instant: a fresh
                // replacement does not inherit the runaway.
                self.st.pressure = None;
            }
        }
        sys.set_timer(self.st.checkpoint_interval(), TOKEN_CHECKPOINT);
        let mut facade = ServerFacade {
            sys,
            st: &mut self.st,
        };
        self.inner.on_start(&mut facade);
    }

    fn on_event(&mut self, sys: &mut dyn SysApi, event: Event) {
        // 1. Group-communication traffic is interceptor-internal.
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
        // 2. Interceptor timers.
        if let Event::TimerFired { token, .. } = event {
            if is_intercept_token(token) {
                self.st.on_timer(sys, token);
                return;
            }
        }
        // 3. Transport events on intercepted streams.
        match event {
            Event::Accepted { listener, conn, .. } if self.st.app_listeners.contains(&listener) => {
                self.st.client_streams.insert(conn, ClientConn::default());
                let mut facade = ServerFacade {
                    sys,
                    st: &mut self.st,
                };
                self.inner.on_event(&mut facade, event);
            }
            Event::DataReadable { conn }
                if self.st.client_streams.contains_key(&conn)
                    || self.st.out_streams.contains_key(&conn) =>
            {
                let staged = self.st.pump_incoming(sys, conn);
                if staged {
                    let mut facade = ServerFacade {
                        sys,
                        st: &mut self.st,
                    };
                    self.inner
                        .on_event(&mut facade, Event::DataReadable { conn });
                }
            }
            Event::PeerClosed { conn }
                if self.st.client_streams.contains_key(&conn)
                    || self.st.out_streams.contains_key(&conn) =>
            {
                if let Some(s) = self.st.stream_mut(conn) {
                    s.stage_eof = true;
                }
                // A departed client no longer needs a migration notice.
                self.st.mark_notified(conn);
                let mut facade = ServerFacade {
                    sys,
                    st: &mut self.st,
                };
                self.inner.on_event(&mut facade, event);
                self.st.maybe_drain(sys);
            }
            other => {
                let mut facade = ServerFacade {
                    sys,
                    st: &mut self.st,
                };
                self.inner.on_event(&mut facade, other);
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }

    /// Forkable over a forkable application. With state the application
    /// must be a [`ReplicaApp`]: its servant holds the other handle to
    /// the state, which only a typed copy can re-point. The copy gets a
    /// state of its own for both its holders, so a replica shares state
    /// with no other.
    fn fork(&self) -> Option<Box<dyn Process>> {
        let mut st = self.st.clone();
        let inner: Box<dyn Process> = match st.state.as_mut() {
            None => self.inner.fork()?,
            Some(state) => {
                // `st.clone()` copied the handle, not the state.
                *state = state.duplicate();
                let app: &dyn Any = self.inner.as_ref();
                Box::new(app.downcast_ref::<ReplicaApp>()?.fork_over(Some(state))?)
            }
        };
        Some(Box::new(ServerInterceptor {
            inner,
            st,
            label: self.label.clone(),
        }))
    }
}

impl ServerState {
    /// Drains real bytes on `conn` into its stream, consuming control
    /// frames and charging per-scheme costs. Returns whether new bytes
    /// were staged for the application.
    fn pump_incoming(&mut self, sys: &mut dyn SysApi, conn: ConnId) -> bool {
        let Ok(read) = sys.read(conn, usize::MAX) else {
            return false;
        };
        let is_client = self.client_streams.contains_key(&conn);
        let Some(stream) = self.stream_mut(conn) else {
            return false;
        };
        if read.eof {
            stream.stage_eof = true;
        }
        stream.incoming.push(read.data);
        let mut staged = false;
        while let Some(scanned) = self.stream_mut(conn).and_then(|s| s.incoming.scan()) {
            let frame = match scanned {
                Scanned::Frame(frame) => frame,
                Scanned::Raw(raw, error) => {
                    // Out of sync: stop interpreting this stream and let
                    // the ORB see (and close) it.
                    if error.is_some() {
                        sys.count("mead.server.desync", 1);
                    }
                    if let Some(stream) = self.stream_mut(conn) {
                        stream.stage_bytes(raw);
                        staged = true;
                    }
                    continue;
                }
            };
            // Warm-passive single-writer discipline (a replica with
            // state): a backup that has never served and is not the first
            // listed replica must not touch application state — a client
            // that resolved straight to a freshly launched, not-yet-warmed
            // instance would otherwise fork the state. Refuse with
            // TRANSIENT so the client retries against the acting primary.
            if is_client
                && self.state.is_some()
                && frame.kind == FrameKind::Giop
                && frame.msg_type() == MsgType::Request as u8
                && !self.ever_served
                && !self.dir.is_first_replica(&self.member)
            {
                if let Ok(MessageView::Request(req)) = MessageView::parse(&frame.bytes) {
                    sys.charge_cpu(FABRICATE_CPU);
                    sys.count("mead.nonprimary_refusals", 1);
                    if req.response_expected {
                        let reply = Message::Reply(ReplyMessage {
                            request_id: req.request_id,
                            body: ReplyBody::SystemException {
                                repo_id: giop::EX_TRANSIENT.to_string(),
                                minor: 1,
                                completed: 1, // NO
                            },
                        });
                        let _ = sys.write_bytes(conn, reply.encode(Endian::Big));
                    }
                    continue;
                }
            }
            if is_client {
                self.process_client_frame(sys, conn, &frame);
            }
            // Server side passes every frame (including any stray MEAD
            // frame) up unchanged; only the client interceptor strips.
            if let Some(stream) = self.stream_mut(conn) {
                stream.stage_frame(frame);
                staged = true;
            }
        }
        staged
    }

    /// The intercepted stream on `conn`, client-facing or outbound.
    fn stream_mut(&mut self, conn: ConnId) -> Option<&mut Stream> {
        self.client_streams
            .get_mut(&conn)
            .map(|client| &mut client.stream)
            .or_else(|| self.out_streams.get_mut(&conn))
    }

    /// Records that the client on `conn` owes no migration notice.
    fn mark_notified(&mut self, conn: ConnId) {
        if let Some(client) = self.client_streams.get_mut(&conn) {
            client.notified = true;
        }
    }

    /// Read-path processing of one inbound client frame.
    fn process_client_frame(&mut self, sys: &mut dyn SysApi, conn: ConnId, frame: &Frame) {
        if frame.kind != FrameKind::Giop || frame.msg_type() != MsgType::Request as u8 {
            return;
        }
        self.ever_served = true;
        self.served_since_checkpoint = true;
        // "The memory leak at a server replica was activated when the
        // server received its first client request." (section 5.1)
        if let Some(leak) = self.leak.as_mut() {
            if !leak.is_active() {
                leak.activate();
                sys.count("mead.leak_activated", 1);
                sys.emit(EventKind::Phase(Phase::LeakDetected));
            }
        }
        // An armed fd leak consumes descriptor-table space per request.
        if let Some(p) = self.pressure.as_mut() {
            if p.is_active() && matches!(p.config().kind, PressureKind::Fd { .. }) {
                p.on_request();
                if self.pressure_progress(sys) {
                    return;
                }
            }
        }
        if self.cfg.scheme == RecoveryScheme::LocationForward {
            // Full parse to harvest request_id and object key — the source
            // of this scheme's ~90 % overhead (section 5.2.2).
            sys.charge_cpu(GIOP_PARSE_CPU);
            if let Ok(MessageView::Request(req)) = MessageView::parse(&frame.bytes) {
                if let Some(client) = self.client_streams.get_mut(&conn) {
                    client
                        .request_keys
                        .insert(req.request_id, ObjectKey::from_slice(req.object_key));
                }
            }
        }
    }

    /// Write-path filtering for replies to clients. Returns the bytes to
    /// actually put on the wire — in the steady state the frame's own
    /// buffer.
    fn filter_client_write(&mut self, sys: &mut dyn SysApi, conn: ConnId, frame: &Frame) -> Bytes {
        if frame.kind != FrameKind::Giop || frame.msg_type() != MsgType::Reply as u8 {
            return frame.bytes.clone();
        }
        // Per-scheme steady-state costs on the reply path.
        match self.cfg.scheme {
            RecoveryScheme::LocationForward => sys.charge_cpu(GIOP_PARSE_CPU),
            RecoveryScheme::MeadFailover => sys.charge_cpu(FRAME_SCAN_CPU),
            _ => {}
        }
        // Event-driven threshold check: "proactive recovery needs to be
        // triggered only when there are active client connections"
        // (section 3.1) — hence on writev, not on a polling thread.
        self.check_thresholds(sys, false);
        if self.phase < Rejuvenation::Migrating {
            return frame.bytes.clone();
        }
        match self.cfg.scheme {
            RecoveryScheme::LocationForward => self.forward_reply(sys, conn, frame),
            RecoveryScheme::MeadFailover => self.piggyback_reply(sys, conn, frame),
            _ => frame.bytes.clone(),
        }
    }

    /// LOCATION_FORWARD: suppress the normal reply, send a forward to the
    /// next replica's IOR instead (section 4.1).
    fn forward_reply(&mut self, sys: &mut dyn SysApi, conn: ConnId, frame: &Frame) -> Bytes {
        let Ok(MessageView::Reply(rep)) = MessageView::parse(&frame.bytes) else {
            return frame.bytes.clone();
        };
        let key = self
            .client_streams
            .get_mut(&conn)
            .and_then(|client| client.request_keys.remove(&rep.request_id));
        let target = self.dir.next_after(&self.member).cloned();
        let (Some(key), Some(target)) = (key, target) else {
            return frame.bytes.clone(); // cannot redirect; serve normally
        };
        sys.charge_cpu(IOR_LOOKUP_CPU);
        let Some(ior) = self.dir.ior_of(&target, &key).cloned() else {
            sys.count("mead.forward_no_ior", 1);
            return frame.bytes.clone();
        };
        sys.charge_cpu(FABRICATE_CPU);
        sys.count("mead.forwards_sent", 1);
        sys.emit(EventKind::Phase(Phase::FailoverNotice));
        self.mark_notified(conn);
        Message::Reply(ReplyMessage {
            request_id: rep.request_id,
            body: ReplyBody::LocationForward(ior),
        })
        .encode(Endian::Big)
    }

    /// MEAD message: deliver the reply *and* piggyback a fail-over notice
    /// carrying the next replica's address (section 4.3).
    fn piggyback_reply(&mut self, sys: &mut dyn SysApi, conn: ConnId, frame: &Frame) -> Bytes {
        let target = self.dir.next_after(&self.member).cloned();
        let addr = target
            .as_ref()
            .and_then(|t| self.dir.addr_of(t).map(|(h, p)| (h.to_string(), p)));
        let Some((host, port)) = addr else {
            sys.count("mead.piggyback_no_target", 1);
            return frame.bytes.clone();
        };
        sys.charge_cpu(FABRICATE_CPU);
        sys.count("mead.piggybacks_sent", 1);
        sys.emit(EventKind::Phase(Phase::FailoverNotice));
        self.mark_notified(conn);
        // "Piggybacking regular GIOP Reply messages onto the MEAD proactive
        // failover messages": the notice travels first so the client-side
        // interceptor can redirect before handing the reply up.
        let mut out = FailoverNotice::new(&host, port, self.member.as_str()).encode();
        out.extend_from_slice(&frame.bytes);
        out.into()
    }

    /// Outbound write-path processing (Naming Service traffic): in the
    /// LOCATION_FORWARD scheme, harvest the IORs the app registers
    /// (section 4.1 "we intercept the IOR ... when each server replica
    /// registers its objects with the Naming Service"). One IOR is kept
    /// per object key, and only a new or changed one is advertised: a
    /// re-bind of the same object is no news to the group.
    fn process_outbound_frame(&mut self, sys: &mut dyn SysApi, frame: &Frame) {
        if self.cfg.scheme != RecoveryScheme::LocationForward {
            return;
        }
        if frame.kind != FrameKind::Giop || frame.msg_type() != MsgType::Request as u8 {
            return;
        }
        sys.charge_cpu(GIOP_PARSE_CPU);
        let Ok(MessageView::Request(req)) = MessageView::parse(&frame.bytes) else {
            return;
        };
        if req.operation != "bind" {
            return;
        }
        let mut r = giop::CdrReader::new(req.body, Endian::Big);
        let parsed = r
            .read_str()
            .and_then(|_name| r.read_octet_slice())
            .ok()
            .and_then(|bytes| giop::Ior::decode(bytes).ok());
        if let Some(ior) = parsed {
            let key = ior.primary_profile().map(|p| &p.object_key);
            let held = self
                .my_iors
                .iter_mut()
                .find(|held| held.primary_profile().map(|p| &p.object_key) == key);
            match held {
                Some(held) if *held == ior => return,
                Some(held) => *held = ior.clone(),
                None => self.my_iors.push(ior.clone()),
            }
            sys.count("mead.ior_captured", 1);
            let member = self.member.as_str().to_string();
            if let Some(gcs) = self.gcs.as_mut() {
                gcs.multicast(
                    sys,
                    SERVER_GROUP,
                    &GroupMsg::IorAdvert { member, ior }.encode(),
                );
            }
        }
    }

    /// Combined resource-usage fraction feeding the two-step thresholds:
    /// the worst (max) of the active leak and the active pressure model.
    /// `None` while no resource fault is active.
    fn usage_fraction(&self) -> Option<f64> {
        let leak = self
            .leak
            .as_ref()
            .filter(|l| l.is_active())
            .map(|l| l.fraction());
        let pressure = self
            .pressure
            .as_ref()
            .filter(|p| p.is_active())
            .map(|p| p.fraction());
        match (leak, pressure) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or(0.0).max(b.unwrap_or(0.0))),
        }
    }

    /// Traces pressure decile crossings and crashes the process when the
    /// resource is fully consumed. Returns `true` when the process exited.
    fn pressure_progress(&mut self, sys: &mut dyn SysApi) -> bool {
        let Some(p) = self.pressure.as_ref() else {
            return false;
        };
        if !p.is_active() {
            return false;
        }
        let resource = p.config().kind.resource();
        let permille = p.permille();
        let decile = permille / 100;
        if decile > self.pressure_decile {
            self.pressure_decile = decile;
            sys.emit(EventKind::ResourcePressure { resource, permille });
        }
        if p.exhausted() {
            sys.count("mead.crash_exhaustion", 1);
            sys.mark("mead.crash_at");
            sys.exit(ExitReason::Crash(format!("{resource} exhausted")));
            return true;
        }
        false
    }

    /// Observes the current resource usage through the configured
    /// [`Trigger`] and takes the step it reached if the rejuvenation
    /// phase is not already past it. The write path (`from_timer ==
    /// false`) feeds the paper's preset thresholds; the leak and pressure
    /// timers feed the adaptive predictor.
    ///
    /// Every proactive scheme launches a replacement at the first
    /// threshold, so a successor is up before this replica dies. Only the
    /// migrating schemes act at the second; NEEDS_ADDRESSING, whose
    /// clients move after the crash, just makes sure the launch went out.
    fn check_thresholds(&mut self, sys: &mut dyn SysApi, from_timer: bool) {
        if !self.cfg.scheme.is_proactive() {
            return;
        }
        let Some(fraction) = self.usage_fraction() else {
            return;
        };
        let step = match (self.cfg.trigger, from_timer) {
            (Trigger::OnWrite, false) => self.monitor.step(fraction),
            (Trigger::Adaptive, true) => self.adaptive.observe(sys.now(), fraction),
            _ => None,
        };
        match step {
            Some(ThresholdAction::LaunchReplacement) if self.phase == Rejuvenation::Serving => {
                sys.emit(EventKind::Phase(Phase::ThresholdCrossed { step: 1 }));
                self.request_launch(sys);
            }
            Some(ThresholdAction::MigrateClients) if !self.cfg.scheme.is_proactive_migration() => {
                self.request_launch(sys);
            }
            Some(ThresholdAction::MigrateClients) if self.phase < Rejuvenation::Migrating => {
                sys.emit(EventKind::Phase(Phase::ThresholdCrossed { step: 2 }));
                self.request_launch(sys); // ensure a target exists
                self.phase = Rejuvenation::Migrating;
                sys.count("mead.migrations", 1);
                sys.mark("mead.migrate_at");
            }
            _ => {}
        }
    }

    /// The periodic checkpoint cadence: one for a replica with state,
    /// the paper's for one without.
    fn checkpoint_interval(&self) -> SimDuration {
        match self.state {
            Some(_) => STATE_CHECKPOINT_INTERVAL,
            None => CHECKPOINT_INTERVAL,
        }
    }

    /// Multicasts a state checkpoint immediately (used for the periodic
    /// cadence and for warming a newly joined replica).
    fn send_checkpoint(&mut self, sys: &mut dyn SysApi) {
        self.served_since_checkpoint = false;
        self.checkpoints_in_flight += 1;
        sys.count("mead.checkpoints_sent", 1);
        let state = match self.state.as_ref() {
            Some(state) => {
                // Every checkpoint multicast owns the batch of replies it
                // covers (possibly empty, e.g. a periodic or warming
                // checkpoint); self-delivery releases batches in FIFO
                // order, which matches multicast order from a single
                // sender.
                self.held_replies
                    .push_back(std::mem::take(&mut self.current_batch));
                state.snapshot()
            }
            None => vec![0u8; CHECKPOINT_BYTES],
        };
        let member = self.member.as_str().to_string();
        if let Some(gcs) = self.gcs.as_mut() {
            gcs.multicast(
                sys,
                SERVER_GROUP,
                &GroupMsg::Checkpoint { member, state }.encode(),
            );
        }
    }

    /// Asks the Recovery Manager for a replacement, once per replica.
    fn request_launch(&mut self, sys: &mut dyn SysApi) {
        if self.phase != Rejuvenation::Serving {
            return;
        }
        self.phase = Rejuvenation::Launched;
        sys.count("mead.launch_requests", 1);
        let member = self.member.as_str().to_string();
        if let Some(gcs) = self.gcs.as_mut() {
            gcs.multicast(
                sys,
                SERVER_GROUP,
                &GroupMsg::LaunchRequest { member }.encode(),
            );
        }
    }

    fn advertise(&mut self, sys: &mut dyn SysApi) {
        let Some(port) = self.listen_port else {
            return;
        };
        let host = crate::host_of(sys.my_node());
        let member = self.member.as_str().to_string();
        let iors = self.my_iors.clone();
        if let Some(gcs) = self.gcs.as_mut() {
            gcs.multicast(
                sys,
                SERVER_GROUP,
                &GroupMsg::AddrAdvert {
                    member: member.clone(),
                    host,
                    port: port.0,
                }
                .encode(),
            );
            for ior in iors {
                gcs.multicast(
                    sys,
                    SERVER_GROUP,
                    &GroupMsg::IorAdvert {
                        member: member.clone(),
                        ior,
                    }
                    .encode(),
                );
            }
        }
    }

    fn on_gcs(&mut self, sys: &mut dyn SysApi, delivery: GcsDelivery) {
        match delivery {
            GcsDelivery::Ready => {
                self.advertise(sys);
                // Re-attach after a daemon outage: checkpoints sent on the
                // dead connection will never self-deliver. A successor
                // still waiting for one waits for the next, and their held
                // reply batches would starve: merge everything still
                // outstanding into one fresh checkpoint on the new
                // connection (its self-delivery releases them all).
                self.checkpoints_in_flight = 0;
                if let Some((_, wait)) = self.successor.as_mut() {
                    *wait = (*wait).min(1);
                }
                if !self.held_replies.is_empty() || !self.current_batch.is_empty() {
                    let mut merged: Vec<(ConnId, Bytes)> = Vec::new();
                    for batch in std::mem::take(&mut self.held_replies) {
                        merged.extend(batch);
                    }
                    merged.append(&mut self.current_batch);
                    self.current_batch = merged;
                    sys.count("mead.ack_recheckpoints", 1);
                    self.send_checkpoint(sys);
                }
            }
            GcsDelivery::View { group, members, .. } if group == SERVER_GROUP => {
                let grew = members.len() > self.dir.view().len();
                self.dir.on_view(members);
                self.track_successor();
                // Advertise once more when our own join is confirmed, in
                // case the advert multicast was ordered ahead of the view.
                if !self.advertised_in_view && self.dir.view().contains(&self.member) {
                    self.advertised_in_view = true;
                    self.advertise(sys);
                }
                // Warm a newly joined replica immediately: the acting
                // primary pushes its current state so a hand-off moments
                // later (pre-launch at T1, migrate at T2) finds the
                // newcomer warm rather than empty.
                if grew && self.ever_served && self.state.is_some() {
                    self.send_checkpoint(sys);
                }
                // The first-listed replica synchronises the active-server
                // list when the group gains a member (section 4.3);
                // newcomers learn addresses from that SyncList.
                if grew && self.dir.is_first_replica(&self.member) {
                    let entries = self.dir.sync_entries();
                    if let Some(gcs) = self.gcs.as_mut() {
                        gcs.multicast(sys, SERVER_GROUP, &GroupMsg::SyncList { entries }.encode());
                        sys.count("mead.synclists_sent", 1);
                    }
                }
                self.maybe_drain(sys);
            }
            GcsDelivery::Message { payload, .. } => match GroupMsg::decode(&payload) {
                Ok(GroupMsg::AddrAdvert { member, host, port }) => {
                    self.dir.record_addr(&member, &host, port);
                }
                Ok(GroupMsg::IorAdvert { member, ior }) => {
                    self.dir.record_ior(&member, ior);
                }
                Ok(GroupMsg::SyncList { entries }) => self.dir.apply_sync(&entries),
                Ok(GroupMsg::AddressQuery { reply_group }) => {
                    // "The first server replica listed in Spread's
                    // group-membership list responds" (section 4.2).
                    if self.dir.is_first_replica(&self.member) {
                        if let Some(port) = self.listen_port {
                            sys.charge_cpu(ADDRESS_REPLY_CPU);
                            sys.charge_cpu(FABRICATE_CPU);
                            sys.count("mead.address_replies", 1);
                            let host = crate::host_of(sys.my_node());
                            let member = self.member.as_str().to_string();
                            if let Some(gcs) = self.gcs.as_mut() {
                                gcs.multicast(
                                    sys,
                                    &reply_group,
                                    &GroupMsg::AddressReply {
                                        member,
                                        host,
                                        port: port.0,
                                    }
                                    .encode(),
                                );
                            }
                        }
                    }
                }
                Ok(GroupMsg::Checkpoint { member, state }) => {
                    if self.member != member.as_str() {
                        sys.count("mead.checkpoints_received", 1);
                        sys.count("mead.checkpoint_bytes", state.len() as u64);
                        // Warm-passive backups apply the primary's state.
                        // An instance that has served requests is itself
                        // the acting primary and ignores foreign
                        // checkpoints (single-writer discipline).
                        if !self.ever_served {
                            if let Some(own) = self.state.as_ref() {
                                own.restore(&state);
                                sys.count("mead.state_restored", 1);
                            }
                        }
                    } else {
                        // Our own checkpoint came back through the total
                        // order: the state is durable at every member of
                        // this view, the successor included.
                        self.checkpoints_in_flight = self.checkpoints_in_flight.saturating_sub(1);
                        if let Some((_, wait)) = self.successor.as_mut() {
                            *wait = wait.saturating_sub(1);
                        }
                        // Commit-before-ack: release the reply batch it
                        // covers.
                        if let Some(batch) = self.held_replies.pop_front() {
                            for (conn, bytes) in batch {
                                sys.count("mead.acks_committed", 1);
                                let _ = sys.write_bytes(conn, bytes);
                            }
                        }
                        self.maybe_drain(sys);
                    }
                }
                Ok(GroupMsg::LaunchRequest { .. }) => {} // Recovery Manager's job
                Ok(GroupMsg::AddressReply { .. }) => {}  // client-side message
                Ok(GroupMsg::RmState { .. }) => {}       // manager-to-manager
                Err(_) => {
                    sys.count("mead.bad_group_msg", 1);
                }
            },
            GcsDelivery::DaemonLost => {
                sys.count("mead.gcs_lost", 1);
            }
            GcsDelivery::View { .. } => {}
        }
    }

    fn on_timer(&mut self, sys: &mut dyn SysApi, token: u64) {
        match token {
            TOKEN_LEAK => {
                let mut exhausted = false;
                if let Some(leak) = self.leak.as_mut() {
                    leak.step(sys.rng());
                    exhausted = leak.is_exhausted();
                }
                if exhausted {
                    // Resource exhaustion: the process-crash fault.
                    sys.count("mead.crash_exhaustion", 1);
                    sys.mark("mead.crash_at");
                    sys.exit(ExitReason::Crash("memory exhausted".into()));
                    return;
                }
                self.check_thresholds(sys, true);
                if self.cfg.leak.is_some() {
                    sys.set_timer(LEAK_INTERVAL, TOKEN_LEAK);
                }
            }
            TOKEN_CHECKPOINT => {
                // Warm-passive state transfer. With state the acting
                // primary — the instance actually serving clients —
                // checkpoints whenever its state is dirty; without (the
                // paper's stateless workload) the first-listed replica
                // emits fixed-size checkpoints for the Figure 5 traffic
                // model.
                let should_send = match self.state {
                    Some(_) => self.served_since_checkpoint,
                    None => self.dir.is_first_replica(&self.member),
                } && self.dir.replica_count() > 1;
                if should_send {
                    self.send_checkpoint(sys);
                }
                sys.set_timer(self.checkpoint_interval(), TOKEN_CHECKPOINT);
            }
            TOKEN_DRAIN => {
                sys.count("mead.graceful_rejuvenations", 1);
                sys.exit(ExitReason::Graceful);
            }
            TOKEN_PRESSURE_ARM => {
                if let Some(p) = self.pressure.as_mut() {
                    p.activate();
                    let kind = p.config().kind;
                    match kind {
                        PressureKind::Cpu { .. } => sys.count("mead.pressure_armed_cpu", 1),
                        PressureKind::Fd { .. } => sys.count("mead.pressure_armed_fd", 1),
                    }
                    sys.emit(EventKind::ResourcePressure {
                        resource: kind.resource(),
                        permille: 0,
                    });
                    if let PressureKind::Cpu { .. } = kind {
                        sys.set_timer(PRESSURE_TICK, TOKEN_PRESSURE_TICK);
                    }
                }
            }
            TOKEN_PRESSURE_TICK => {
                let mut ticking = false;
                if let Some(p) = self.pressure.as_mut() {
                    if p.is_active() && matches!(p.config().kind, PressureKind::Cpu { .. }) {
                        let fraction = p.on_tick();
                        // The runaway computation steals real cycles:
                        // charge the consumed share of the tick so service
                        // latency degrades as the ramp climbs.
                        let stolen = PRESSURE_TICK.as_nanos() as f64 * fraction * 0.25;
                        sys.charge_cpu(SimDuration::from_nanos(stolen as u64));
                        ticking = true;
                    }
                }
                if self.pressure_progress(sys) {
                    return;
                }
                self.check_thresholds(sys, true);
                if ticking {
                    sys.set_timer(PRESSURE_TICK, TOKEN_PRESSURE_TICK);
                }
            }
            _ => {}
        }
    }

    /// Notes the successor in the view just installed. A newly seen one
    /// is warm once a checkpoint of ours sent after this view has
    /// self-delivered: under agreed delivery the successor delivered it
    /// in the same view.
    fn track_successor(&mut self) {
        let seen = self
            .dir
            .replicas()
            .find(|m| m.slot() == Some(self.slot) && **m != self.member)
            .cloned();
        self.successor = match (seen, self.successor.take()) {
            (Some(seen), Some((known, wait))) if seen == known => Some((known, wait)),
            (Some(seen), _) => Some((seen, self.checkpoints_in_flight + 1)),
            (None, _) => None,
        };
    }

    /// Once every connected client has been redirected, schedule the
    /// graceful exit (rejuvenation). A replica with state is retired only
    /// once its successor is up and warm (Zhao, arXiv 0803.1521); until
    /// then the exhaustion crash is the only way out. A stateless replica
    /// has nothing for a successor to take over (DESIGN §8).
    fn maybe_drain(&mut self, sys: &mut dyn SysApi) {
        let successor_warm = self.state.is_none() || matches!(self.successor, Some((_, 0)));
        if self.phase != Rejuvenation::Migrating || !successor_warm {
            return;
        }
        if self.client_streams.values().all(|client| client.notified) {
            self.phase = Rejuvenation::Draining;
            sys.set_timer(DRAIN_DELAY, TOKEN_DRAIN);
        }
    }
}

/// The syscall façade handed to the wrapped application.
struct ServerFacade<'a> {
    sys: &'a mut dyn SysApi,
    st: &'a mut ServerState,
}

impl SysApi for ServerFacade<'_> {
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
        // Section 4.3: "intercepts the listen() call at the server to
        // determine the port on which the server-side ORB is listening".
        let lsn = self.sys.listen(port)?;
        self.st.listen_port = Some(port);
        self.st.app_listeners.insert(lsn);
        self.st.advertise(self.sys);
        Ok(lsn)
    }

    fn unlisten(&mut self, listener: ListenerId) {
        self.st.app_listeners.remove(&listener);
        self.sys.unlisten(listener);
    }

    fn connect(&mut self, addr: simnet::Addr) -> ConnId {
        let conn = self.sys.connect(addr);
        self.st.out_streams.insert(conn, Stream::default());
        conn
    }

    fn write_bytes(&mut self, conn: ConnId, bytes: Bytes) -> Result<(), SysError> {
        if let Some(client) = self.st.client_streams.get_mut(&conn) {
            client.stream.outgoing.push(bytes);
            let mut held_any = false;
            while let Some(scanned) = self
                .st
                .client_streams
                .get_mut(&conn)
                .and_then(|client| client.stream.outgoing.scan())
            {
                let frame = match scanned {
                    Scanned::Frame(frame) => frame,
                    // The app emitted something unframeable; pass raw.
                    Scanned::Raw(raw, _) => {
                        self.sys.write_bytes(conn, raw)?;
                        continue;
                    }
                };
                let out = self.st.filter_client_write(self.sys, conn, &frame);
                // Commit-before-ack: a replica with state puts a GIOP
                // reply on the wire only once the checkpoint covering the
                // state it acknowledges is durable (self-delivered).
                if self.st.state.is_some()
                    && frame.kind == FrameKind::Giop
                    && frame.msg_type() == MsgType::Reply as u8
                {
                    self.st.current_batch.push((conn, out));
                    held_any = true;
                } else {
                    self.sys.write_bytes(conn, out)?;
                }
            }
            if held_any {
                self.st.send_checkpoint(self.sys);
            }
            self.st.maybe_drain(self.sys);
            Ok(())
        } else if let Some(stream) = self.st.out_streams.get_mut(&conn) {
            // Outbound traffic is only looked at; it goes out as written.
            stream.outgoing.push(bytes.clone());
            while let Some(Scanned::Frame(frame)) = self
                .st
                .out_streams
                .get_mut(&conn)
                .and_then(|s| s.outgoing.scan())
            {
                self.st.process_outbound_frame(self.sys, &frame);
            }
            self.sys.write_bytes(conn, bytes)
        } else {
            self.sys.write_bytes(conn, bytes)
        }
    }

    fn read(&mut self, conn: ConnId, max: usize) -> Result<ReadOutcome, SysError> {
        match self.st.stream_mut(conn) {
            Some(stream) => Ok(stream.read(max)),
            None => self.sys.read(conn, max),
        }
    }

    fn close(&mut self, conn: ConnId) {
        self.st.client_streams.remove(&conn);
        self.st.out_streams.remove(&conn);
        self.sys.close(conn);
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

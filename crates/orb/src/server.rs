//! The server-side ORB: listener, connection handling and the object
//! adapter that dispatches GIOP requests to servants.
//!
//! A server process embeds a [`ServerOrb`], registers [`Servant`]s under
//! persistent [`ObjectKey`]s, and forwards events to
//! [`ServerOrb::handle_event`]. The ORB replies with `NO_EXCEPTION` results
//! or `SystemException` bodies. Proactive behaviour is *not* here: MEAD
//! adds it underneath, by interposing on this process's reads and writes,
//! exactly as the paper layers its interceptor under an unmodified ORB.

use std::collections::BTreeMap;
use std::rc::Rc;

use giop::{
    Endian, FrameKind, FrameSplitter, Message, MessageView, ObjectKey, ReplyBody, ReplyMessage,
    RequestView,
};
use simnet::{ConnId, Event, ListenerId, Port, SimDuration, SysApi};

use crate::exceptions::{Completed, SystemException};
use crate::servants::CounterState;

/// An object implementation, dispatched by operation name.
///
/// The `sys` handle lets servants read simulated time or charge
/// operation-specific CPU (e.g. the Naming Service's expensive resolve).
pub trait Servant {
    /// Executes `operation` with CDR-encoded `body`, returning CDR-encoded
    /// results.
    ///
    /// # Errors
    ///
    /// A [`SystemException`] to marshal back to the client.
    fn invoke(
        &mut self,
        sys: &mut dyn SysApi,
        operation: &str,
        body: &[u8],
    ) -> Result<Vec<u8>, SystemException>;

    /// Repository id of the servant's interface.
    fn type_id(&self) -> &str;

    /// A copy of this servant for a forked simulation
    /// ([`simnet::Process::fork`]), sharing no mutable state with it.
    ///
    /// `state` is the forked replica's copy of the [`CounterState`] its
    /// servant shares with checkpointing: a servant over that state
    /// serves the copy from `state` and not from a duplicate of its own,
    /// so that in the fork, too, servant and checkpoints see one state.
    /// Servants without such state ignore it. `None`, the default, says
    /// the servant cannot be copied.
    fn fork(&self, _state: Option<&Rc<CounterState>>) -> Option<Box<dyn Servant>> {
        None
    }
}

/// CPU to unmarshal a request, locate the servant and marshal the reply
/// (excluding servant work); calibrated with the client ORB's charges
/// to the paper's fault-free RTT (DESIGN §7).
const DISPATCH_CPU: SimDuration = SimDuration::from_micros(40);

/// The server-side ORB.
pub struct ServerOrb {
    port: Port,
    listener: Option<ListenerId>,
    adapter: BTreeMap<ObjectKey, Box<dyn Servant>>,
    conns: BTreeMap<ConnId, FrameSplitter>,
}

impl ServerOrb {
    /// Creates an ORB that will listen on `port`.
    pub fn new(port: Port) -> Self {
        ServerOrb {
            port,
            listener: None,
            adapter: BTreeMap::new(),
            conns: BTreeMap::new(),
        }
    }

    /// The listening port.
    pub fn port(&self) -> Port {
        self.port
    }

    /// Registers `servant` under `key` (replacing any previous binding).
    pub fn register(&mut self, key: ObjectKey, servant: Box<dyn Servant>) {
        self.adapter.insert(key, servant);
    }

    /// Object keys currently registered.
    pub fn keys(&self) -> impl Iterator<Item = &ObjectKey> {
        self.adapter.keys()
    }

    /// Starts listening. Call from `on_start`.
    ///
    /// # Panics
    ///
    /// Panics if the port is taken — a deployment bug in an experiment.
    pub fn start(&mut self, sys: &mut dyn SysApi) {
        self.listener = Some(sys.listen(self.port).expect("server port free"));
    }

    /// Number of live client connections.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// A copy of this ORB for a forked simulation, every servant copied
    /// by [`Servant::fork`] over `state`; `None` when one of them cannot
    /// be.
    pub fn fork(&self, state: Option<&Rc<CounterState>>) -> Option<ServerOrb> {
        let adapter = self
            .adapter
            .iter()
            .map(|(key, servant)| Some((key.clone(), servant.fork(state)?)))
            .collect::<Option<_>>()?;
        Some(ServerOrb {
            port: self.port,
            listener: self.listener,
            adapter,
            conns: self.conns.clone(),
        })
    }

    /// Offers an event to the ORB. Returns `None` when the event is not
    /// ORB-related, `Some(handled_requests)` otherwise.
    pub fn handle_event(&mut self, sys: &mut dyn SysApi, event: &Event) -> Option<usize> {
        match event {
            Event::Accepted { listener, conn, .. } if Some(*listener) == self.listener => {
                self.conns.insert(*conn, FrameSplitter::new());
                Some(0)
            }
            Event::DataReadable { conn } => {
                if !self.conns.contains_key(conn) {
                    return None;
                }
                let Ok(read) = sys.read(*conn, usize::MAX) else {
                    return Some(0);
                };
                let splitter = self.conns.get_mut(conn).expect("checked");
                splitter.push_bytes(read.data);
                let mut handled = 0;
                loop {
                    let frame = match self.conns.get_mut(conn).map(|s| s.next_frame()) {
                        Some(Ok(Some(f))) => f,
                        Some(Ok(None)) | None => break,
                        Some(Err(_)) => {
                            sys.count("orb.server.protocol_error", 1);
                            sys.close(*conn);
                            self.conns.remove(conn);
                            break;
                        }
                    };
                    if frame.kind != FrameKind::Giop {
                        sys.count("orb.server.alien_frame", 1);
                        continue;
                    }
                    match MessageView::parse(&frame.bytes) {
                        Ok(MessageView::Request(req)) => {
                            self.dispatch(sys, *conn, req);
                            handled += 1;
                        }
                        Ok(MessageView::CloseConnection) => {
                            sys.close(*conn);
                            self.conns.remove(conn);
                            break;
                        }
                        Ok(_) => {
                            sys.count("orb.server.protocol_error", 1);
                        }
                        Err(_) => {
                            sys.count("orb.server.protocol_error", 1);
                        }
                    }
                }
                Some(handled)
            }
            Event::PeerClosed { conn } => {
                if self.conns.remove(conn).is_some() {
                    sys.close(*conn);
                    Some(0)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Looks the servant up and invokes it straight from the request as
    /// it lies in the received frame.
    fn dispatch(&mut self, sys: &mut dyn SysApi, conn: ConnId, req: RequestView<'_>) {
        sys.charge_cpu(DISPATCH_CPU);
        sys.count("orb.server.requests", 1);
        let outcome = match self.adapter.get_mut(req.object_key) {
            Some(servant) => servant.invoke(sys, req.operation, req.body),
            None => Err(SystemException::ObjectNotExist {
                completed: Completed::No,
            }),
        };
        if !req.response_expected {
            return;
        }
        let body = match outcome {
            Ok(payload) => ReplyBody::NoException(payload),
            Err(ex) => ex.to_reply_body(),
        };
        let reply = Message::Reply(ReplyMessage {
            request_id: req.request_id,
            body,
        });
        let _ = sys.write_bytes(conn, reply.encode(Endian::Big));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Servant for Nop {
        fn invoke(
            &mut self,
            _sys: &mut dyn SysApi,
            _operation: &str,
            _body: &[u8],
        ) -> Result<Vec<u8>, SystemException> {
            Ok(Vec::new())
        }
        fn type_id(&self) -> &str {
            "IDL:Nop:1.0"
        }
    }

    #[test]
    fn register_and_enumerate_keys() {
        let mut orb = ServerOrb::new(Port(1));
        let k = ObjectKey::persistent("POA", "A");
        orb.register(k.clone(), Box::new(Nop));
        assert_eq!(orb.keys().collect::<Vec<_>>(), vec![&k]);
        assert_eq!(orb.port(), Port(1));
        assert_eq!(orb.connection_count(), 0);
    }
}

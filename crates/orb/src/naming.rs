//! The CORBA Naming Service.
//!
//! A standalone server process that maps names to IORs. Replicas bind
//! themselves at start-up ("each server replica registers its objects with
//! the Naming Service"), and the reactive recovery schemes resolve through
//! it: the no-cache client resolves the next replica after every
//! `COMM_FAILURE`; the caching client lists all replica bindings at once
//! and refreshes the cache when it runs out (section 5).
//!
//! Operations (all CDR-encoded):
//!
//! | op        | in                    | out                         |
//! |-----------|-----------------------|-----------------------------|
//! | `bind`    | name, IOR             | —                           |
//! | `unbind`  | name                  | —                           |
//! | `resolve` | name                  | IOR (or `NotFound`)         |
//! | `list`    | name prefix           | sequence of (name, IOR)     |
//!
//! The resolve CPU cost is calibrated so that a full recovery sequence
//! (resolve + new ORB connection to the resolved replica + retried
//! invocation) lands at the paper's ≈8.4 ms spike, and a three-entry
//! `list` refresh sequence at ≈9.7 ms (Figure 3); the ORB's ~6 ms
//! connection-establishment cost is charged separately by the client ORB.

use std::collections::BTreeMap;
use std::rc::Rc;

use giop::{CdrError, CdrReader, CdrWriter, Endian, Ior, ObjectKey};
use simnet::{Event, NodeId, Port, Process, SimDuration, SysApi};

use crate::client::host_of;
use crate::exceptions::SystemException;
use crate::servants::CounterState;
use crate::server::{Servant, ServerOrb};

/// Well-known Naming Service port (the OMG's standard 2809).
pub const NAMING_PORT: Port = Port(2809);

/// Repository id of the naming interface.
pub const NAMING_TYPE_ID: &str = "IDL:omg.org/CosNaming/NamingContext:1.0";

/// Repository id of the `NotFound` user exception.
pub const EX_NOT_FOUND: &str = "IDL:omg.org/CosNaming/NamingContext/NotFound:1.0";

/// The persistent key under which the naming servant is reachable.
pub fn naming_key() -> ObjectKey {
    ObjectKey::persistent("RootPOA", "NameService")
}

/// The well-known IOR of the Naming Service on `node`.
pub fn naming_ior(node: NodeId) -> Ior {
    Ior::singleton(NAMING_TYPE_ID, &host_of(node), NAMING_PORT.0, naming_key())
}

/// CPU per `resolve`/first `list` entry (part of the paper's ~8.4 ms
/// resolve spike; the rest is the ORB connection cost).
const RESOLVE_CPU: SimDuration = SimDuration::from_micros(900);
/// CPU per additional `list` entry (the 3-entry refresh costs ~9.7 ms).
const ENTRY_CPU: SimDuration = SimDuration::from_micros(650);
/// CPU per `bind`/`unbind`.
const BIND_CPU: SimDuration = SimDuration::from_micros(200);

/// Encodes the `bind` request body.
pub fn encode_bind(name: &str, ior: &Ior) -> Vec<u8> {
    let mut w = CdrWriter::new(Endian::Big);
    w.write_string(name);
    w.write_octets(&ior.encode());
    w.into_vec()
}

/// Encodes a body holding just a name (`resolve`, `unbind`, `list`).
pub fn encode_name(name: &str) -> Vec<u8> {
    let mut w = CdrWriter::new(Endian::Big);
    w.write_string(name);
    w.into_vec()
}

/// Decodes a `resolve` reply into the bound IOR.
///
/// # Errors
///
/// [`CdrError`] on malformed payload.
pub fn decode_resolve_reply(payload: &[u8]) -> Result<Ior, CdrError> {
    let mut r = CdrReader::new(payload, Endian::Big);
    Ior::decode(r.read_octet_slice()?)
}

/// Decodes a `list` reply into (name, IOR) pairs.
///
/// # Errors
///
/// [`CdrError`] on malformed payload.
pub fn decode_list_reply(payload: &[u8]) -> Result<Vec<(String, Ior)>, CdrError> {
    let mut r = CdrReader::new(payload, Endian::Big);
    // An entry is at least an empty name and an IOR's length.
    let n = r.read_count(9)?;
    let mut out = Vec::with_capacity(r.room_for::<(String, Ior)>(n));
    for _ in 0..n {
        let name = r.read_string()?;
        out.push((name, Ior::decode(r.read_octet_slice()?)?));
    }
    Ok(out)
}

/// The naming servant: a name → IOR registry, empty by default.
///
/// A binding is stored as the IOR bytes the `bind` carried, checked by
/// [`Ior::validate`] but not decoded: replicas re-bind every slot name on
/// a timer, so a re-bind of a known name only overwrites its bytes in
/// place. `resolve` and `list` decode and re-encode a binding, so a reply
/// carries exactly what a decoded store would send (a foreign profile is
/// dropped).
#[derive(Clone, Default)]
pub struct NamingServant {
    bindings: BTreeMap<String, Vec<u8>>,
}

impl NamingServant {
    /// Number of bindings (for tests).
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// `true` when no names are bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }
}

/// Writes a stored binding as the reply's `sequence<octet>` IOR.
fn write_bound(w: &mut CdrWriter, bytes: &[u8]) -> Result<(), CdrError> {
    w.write_octets(&Ior::decode(bytes)?.encode());
    Ok(())
}

impl Servant for NamingServant {
    fn invoke(
        &mut self,
        sys: &mut dyn SysApi,
        operation: &str,
        body: &[u8],
    ) -> Result<Vec<u8>, SystemException> {
        let mut r = CdrReader::new(body, Endian::Big);
        let malformed = |_e: CdrError| SystemException::Other {
            repo_id: "IDL:omg.org/CORBA/MARSHAL:1.0".into(),
            completed: crate::exceptions::Completed::No,
        };
        match operation {
            "bind" => {
                sys.charge_cpu(BIND_CPU);
                let name = r.read_str().map_err(malformed)?;
                let bytes = r.read_octet_slice().map_err(malformed)?;
                Ior::validate(bytes).map_err(malformed)?;
                sys.count("naming.bind", 1);
                // Rebind semantics.
                match self.bindings.get_mut(name) {
                    Some(bound) => {
                        bound.clear();
                        bound.extend_from_slice(bytes);
                    }
                    None => {
                        self.bindings.insert(name.to_owned(), bytes.to_vec());
                    }
                }
                Ok(Vec::new())
            }
            "unbind" => {
                sys.charge_cpu(BIND_CPU);
                let name = r.read_str().map_err(malformed)?;
                self.bindings.remove(name);
                Ok(Vec::new())
            }
            "resolve" => {
                sys.charge_cpu(RESOLVE_CPU);
                let name = r.read_str().map_err(malformed)?;
                sys.count("naming.resolve", 1);
                match self.bindings.get(name) {
                    Some(bytes) => {
                        let mut w = CdrWriter::new(Endian::Big);
                        write_bound(&mut w, bytes).map_err(malformed)?;
                        Ok(w.into_vec())
                    }
                    None => Err(SystemException::Other {
                        repo_id: EX_NOT_FOUND.into(),
                        completed: crate::exceptions::Completed::Yes,
                    }),
                }
            }
            "list" => {
                let prefix = r.read_str().map_err(malformed)?;
                let matches: Vec<(&String, &Vec<u8>)> = self
                    .bindings
                    .iter()
                    .filter(|(n, _)| n.starts_with(prefix))
                    .collect();
                sys.charge_cpu(RESOLVE_CPU + ENTRY_CPU * (matches.len().saturating_sub(1)) as u64);
                let mut w = CdrWriter::new(Endian::Big);
                w.write_count(matches.len());
                for (name, bytes) in matches {
                    w.write_string(name);
                    write_bound(&mut w, bytes).map_err(malformed)?;
                }
                Ok(w.into_vec())
            }
            other => Err(SystemException::Other {
                repo_id: format!("IDL:omg.org/CORBA/BAD_OPERATION:1.0#{other}"),
                completed: crate::exceptions::Completed::No,
            }),
        }
    }

    fn type_id(&self) -> &str {
        NAMING_TYPE_ID
    }

    fn fork(&self, _state: Option<&Rc<CounterState>>) -> Option<Box<dyn Servant>> {
        Some(Box::new(self.clone()))
    }
}

/// The Naming Service as a standalone simulated process.
pub struct NamingService {
    orb: ServerOrb,
}

impl NamingService {
    /// Creates the service with an empty registry.
    pub fn new() -> Self {
        let orb = ServerOrb::new(
            NAMING_PORT,
            naming_key(),
            Box::new(NamingServant::default()),
        );
        NamingService { orb }
    }
}

impl Default for NamingService {
    fn default() -> Self {
        Self::new()
    }
}

impl Process for NamingService {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.orb.start(sys);
    }

    fn on_event(&mut self, sys: &mut dyn SysApi, event: Event) {
        let _ = self.orb.handle_event(sys, &event);
    }

    fn label(&self) -> &str {
        "naming-service"
    }

    fn fork(&self) -> Option<Box<dyn Process>> {
        let orb = self.orb.fork(None)?;
        Some(Box::new(NamingService { orb }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_encodings_roundtrip() {
        let ior = Ior::singleton("IDL:X:1.0", "node1", 99, ObjectKey::persistent("P", "O"));
        let bind = encode_bind("replicas/r1", &ior);
        let mut r = CdrReader::new(&bind, Endian::Big);
        assert_eq!(r.read_string().unwrap(), "replicas/r1");
        assert_eq!(Ior::decode(&r.read_octets().unwrap()).unwrap(), ior);

        let mut w = CdrWriter::new(Endian::Big);
        w.write_octets(&ior.encode());
        assert_eq!(decode_resolve_reply(&w.finish()).unwrap(), ior);

        let mut w = CdrWriter::new(Endian::Big);
        w.write_u32(2);
        w.write_string("a");
        w.write_octets(&ior.encode());
        w.write_string("b");
        w.write_octets(&ior.encode());
        let list = decode_list_reply(&w.finish()).unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].0, "a");
        assert_eq!(list[1].1, ior);
    }

    #[test]
    fn naming_ior_targets_well_known_port() {
        let ior = naming_ior(NodeId::from_index(4));
        let p = ior.primary_profile().unwrap();
        assert_eq!(p.host, "node4");
        assert_eq!(p.port, NAMING_PORT.0);
        assert_eq!(p.object_key, naming_key());
    }

    #[test]
    fn servant_registry_is_empty_initially() {
        let s = NamingServant::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}

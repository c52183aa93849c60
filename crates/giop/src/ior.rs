//! Interoperable Object References (IORs).
//!
//! An IOR names a CORBA object location-transparently: a repository type id
//! plus one or more tagged profiles, each carrying enough addressing
//! information for some transport. We implement the IIOP profile (the only
//! one the paper's system needs): host, port and the object key.
//!
//! In the `LOCATION_FORWARD` scheme the body of the forwarding reply *is*
//! an IOR for the object at the next replica (section 4.1), so IORs must be
//! CDR-encodable.

use crate::cdr::{CdrError, CdrReader, CdrWriter};
use crate::key::ObjectKey;

/// Profile tag for IIOP, per the CORBA specification.
pub const TAG_INTERNET_IOP: u32 = 0;

/// An IIOP (TCP) profile: where a CORBA object lives.
///
/// Hosts are simulated node names of the form `"node<N>"`; the pair maps
/// onto a `simnet::Addr` at the ORB layer.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct IiopProfile {
    /// IIOP major version (always 1 here).
    pub version_major: u8,
    /// IIOP minor version (0 for this implementation's GIOP 1.0 framing).
    pub version_minor: u8,
    /// Host name, e.g. `"node2"`.
    pub host: String,
    /// TCP port.
    pub port: u16,
    /// Persistent object key at that server.
    pub object_key: ObjectKey,
}

/// An Interoperable Object Reference.
///
/// ```
/// use giop::{Ior, ObjectKey};
///
/// let ior = Ior::singleton(
///     "IDL:TimeOfDay:1.0",
///     "node1",
///     2810,
///     ObjectKey::persistent("TimePOA", "TimeOfDay"),
/// );
/// let bytes = ior.encode();
/// assert_eq!(Ior::decode(&bytes).unwrap(), ior);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Ior {
    /// Repository id of the most-derived interface, e.g.
    /// `"IDL:TimeOfDay:1.0"`.
    pub type_id: String,
    /// Tagged profiles (we only produce/consume IIOP).
    pub profiles: Vec<IiopProfile>,
}

impl Ior {
    /// Builds an IOR with a single IIOP profile.
    pub fn singleton(type_id: &str, host: &str, port: u16, object_key: ObjectKey) -> Self {
        Ior {
            type_id: type_id.to_string(),
            profiles: vec![IiopProfile {
                version_major: 1,
                version_minor: 0,
                host: host.to_string(),
                port,
                object_key,
            }],
        }
    }

    /// The first IIOP profile, if any.
    pub fn primary_profile(&self) -> Option<&IiopProfile> {
        self.profiles.first()
    }

    /// CDR-encodes the IOR (big-endian, as used in reply bodies).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = CdrWriter::new(crate::Endian::Big);
        self.write_into(&mut w);
        w.into_vec()
    }

    /// Writes this IOR into an ongoing CDR stream.
    pub fn write_into(&self, w: &mut CdrWriter) {
        w.write_string(&self.type_id);
        w.write_u32(crate::cdr::wire_len(self.profiles.len()));
        for p in &self.profiles {
            w.write_u32(TAG_INTERNET_IOP);
            // Profile body is an encapsulation: sequence<octet> with its own
            // byte-order octet (we always emit big-endian encapsulations).
            let mut body = CdrWriter::new(crate::Endian::Big);
            body.write_u8(0); // encapsulation endianness: big
            body.write_u8(p.version_major);
            body.write_u8(p.version_minor);
            body.write_string(&p.host);
            body.write_u16(p.port);
            body.write_octets(p.object_key.as_bytes());
            w.write_octets(&body.into_vec());
        }
    }

    /// Decodes an IOR from `bytes`.
    ///
    /// # Errors
    ///
    /// Any [`CdrError`] from malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Self, CdrError> {
        let mut r = CdrReader::new(bytes, crate::Endian::Big);
        Self::read_from(&mut r)
    }

    /// Checks that `bytes` hold an IOR, allocating nothing: `Ok` exactly
    /// when [`decode`](Self::decode) would succeed, and otherwise its error.
    ///
    /// # Errors
    ///
    /// The [`CdrError`] `decode` would return.
    pub fn validate(bytes: &[u8]) -> Result<(), CdrError> {
        let mut r = CdrReader::new(bytes, crate::Endian::Big);
        Self::walk(&mut r, None).map(drop)
    }

    /// Reads an IOR from an ongoing CDR stream.
    ///
    /// # Errors
    ///
    /// Any [`CdrError`] from malformed input.
    pub fn read_from(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        let mut profiles = Vec::new();
        let type_id = Self::walk(r, Some(&mut profiles))?.to_owned();
        Ok(Ior { type_id, profiles })
    }

    /// The one IOR parser: reads the type id and every profile, skipping
    /// foreign ones, and returns the type id. Owned copies of the IIOP
    /// profiles go to `profiles` when it is given.
    fn walk<'a>(
        r: &mut CdrReader<'a>,
        mut profiles: Option<&mut Vec<IiopProfile>>,
    ) -> Result<&'a str, CdrError> {
        let type_id = r.read_str()?;
        let n = r.read_u32()?;
        if n as usize > r.remaining() {
            return Err(CdrError::LengthOverrun {
                declared: n,
                remaining: r.remaining(),
            });
        }
        if let Some(out) = profiles.as_mut() {
            // A profile takes a few bytes on the wire and ~50 in memory:
            // trust a hostile count only so far. Exact: an IOR usually has
            // one profile, and `reserve` would make room for four.
            out.reserve_exact(n.min(1024) as usize);
        }
        for _ in 0..n {
            let tag = r.read_u32()?;
            let body = r.read_octet_slice()?;
            if tag != TAG_INTERNET_IOP {
                continue; // skip foreign profiles, per the spec
            }
            let mut b = CdrReader::new(body, crate::Endian::Big);
            let endian_flag = b.read_u8()?;
            if endian_flag != 0 {
                // We only ever emit big-endian encapsulations.
                return Err(CdrError::InvalidEnum {
                    what: "encapsulation endianness",
                    value: u32::from(endian_flag),
                });
            }
            let version_major = b.read_u8()?;
            let version_minor = b.read_u8()?;
            let host = b.read_str()?;
            let port = b.read_u16()?;
            let object_key = b.read_octet_slice()?;
            if let Some(out) = profiles.as_mut() {
                out.push(IiopProfile {
                    version_major,
                    version_minor,
                    host: host.to_owned(),
                    port,
                    object_key: ObjectKey::from_slice(object_key),
                });
            }
        }
        Ok(type_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ior {
        Ior::singleton(
            "IDL:TimeOfDay:1.0",
            "node3",
            2810,
            ObjectKey::persistent("TimePOA", "TimeOfDay"),
        )
    }

    #[test]
    fn roundtrip() {
        let ior = sample();
        let b = ior.encode();
        assert_eq!(Ior::decode(&b).unwrap(), ior);
    }

    #[test]
    fn decoding_reserves_no_spare_profiles() {
        // Clients hold decoded IORs for the whole run.
        let got = Ior::decode(&sample().encode()).unwrap();
        assert_eq!(got.profiles.capacity(), 1);
    }

    #[test]
    fn primary_profile_accessor() {
        let ior = sample();
        let p = ior.primary_profile().unwrap();
        assert_eq!(p.host, "node3");
        assert_eq!(p.port, 2810);
    }

    #[test]
    fn multi_profile_roundtrip() {
        let mut ior = sample();
        ior.profiles.push(IiopProfile {
            version_major: 1,
            version_minor: 0,
            host: "node4".into(),
            port: 2811,
            object_key: ObjectKey::persistent("TimePOA", "TimeOfDay"),
        });
        let b = ior.encode();
        let got = Ior::decode(&b).unwrap();
        assert_eq!(got.profiles.len(), 2);
        assert_eq!(got, ior);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let b = sample().encode();
        for cut in 0..b.len() {
            let _ = Ior::decode(&b[..cut]); // must not panic
        }
        assert!(Ior::decode(&b[..4]).is_err());
    }

    #[test]
    fn hostile_profile_count_is_rejected() {
        let mut w = CdrWriter::new(crate::Endian::Big);
        w.write_string("IDL:x:1.0");
        w.write_u32(u32::MAX); // absurd profile count
        let b = w.finish();
        assert!(matches!(
            Ior::decode(&b),
            Err(CdrError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn foreign_profiles_are_skipped() {
        let mut w = CdrWriter::new(crate::Endian::Big);
        w.write_string("IDL:x:1.0");
        w.write_u32(1);
        w.write_u32(99); // unknown tag
        w.write_octets(&[1, 2, 3]);
        let got = Ior::decode(&w.finish()).unwrap();
        assert!(got.profiles.is_empty());
        assert!(got.primary_profile().is_none());
    }
}

//! Persistent object keys.
//!
//! The paper's schemes all assume CORBA *persistent* object-key policies:
//! the key that names an object survives server restarts and is identical
//! across all replicas, which is what makes request forwarding between
//! replicas possible at all (section 4). Keys in the paper's test
//! application were "typically 52 bytes"; ours reproduce that shape:
//! `POA:<poa-name>/OID:<object-name>` padded to [`ObjectKey::CANONICAL_LEN`].
//!
//! Section 4.1 describes an optimisation: a **16-bit hash** of the key used
//! for IOR-table lookups in the `LOCATION_FORWARD` scheme instead of a
//! byte-by-byte comparison. [`ObjectKey::hash16`] implements it.

use core::fmt;
use std::sync::Arc;

/// A persistent CORBA object key.
///
/// The bytes are shared, so a clone (one per client invocation, one per
/// copied IOR) allocates nothing.
///
/// ```
/// use giop::ObjectKey;
///
/// let k = ObjectKey::persistent("TimePOA", "TimeOfDay");
/// assert_eq!(k.as_bytes().len(), ObjectKey::CANONICAL_LEN);
/// assert_eq!(k, ObjectKey::persistent("TimePOA", "TimeOfDay"));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectKey(Arc<[u8]>);

impl ObjectKey {
    /// The canonical padded key length, matching the ~52-byte keys of the
    /// paper's test application.
    pub const CANONICAL_LEN: usize = 52;

    /// Builds the persistent key for `object` under POA `poa`.
    ///
    /// The key is deterministic — identical across replicas and across
    /// restarts — and padded with NULs to [`Self::CANONICAL_LEN`] (longer
    /// names simply extend past it).
    pub fn persistent(poa: &str, object: &str) -> Self {
        let mut v = format!("POA:{poa}/OID:{object}").into_bytes();
        if v.len() < Self::CANONICAL_LEN {
            v.resize(Self::CANONICAL_LEN, 0);
        }
        ObjectKey(v.into())
    }

    /// Copies key bytes read off the wire: one allocation.
    pub fn from_slice(bytes: &[u8]) -> Self {
        ObjectKey(bytes.into())
    }

    /// The raw key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The 16-bit lookup hash of section 4.1 (Fletcher-16 over the key
    /// bytes): cheap to compute, cheap to compare, and with 3 replicas and
    /// a handful of objects collisions are practically absent — but lookups
    /// must still verify the full key on hash match, as ours do.
    pub fn hash16(&self) -> u16 {
        let mut a: u16 = 0;
        let mut b: u16 = 0;
        for &byte in self.as_bytes() {
            a = (a + u16::from(byte)) % 255;
            b = (b + a) % 255;
        }
        (b << 8) | a
    }
}

/// Lets a map keyed by `ObjectKey` be searched with the key bytes of a
/// request read in place (`Ord`/`Eq`/`Hash` are those of the bytes).
impl core::borrow::Borrow<[u8]> for ObjectKey {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let printable: String = self
            .0
            .iter()
            .take_while(|&&b| b != 0)
            .map(|&b| if b.is_ascii_graphic() { b as char } else { '.' })
            .collect();
        write!(f, "ObjectKey({printable})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persistent_keys_are_deterministic() {
        let a = ObjectKey::persistent("RootPOA", "NameService");
        let b = ObjectKey::persistent("RootPOA", "NameService");
        assert_eq!(a, b);
        assert_eq!(a.hash16(), b.hash16());
    }

    #[test]
    fn distinct_objects_get_distinct_keys_and_hashes() {
        let a = ObjectKey::persistent("TimePOA", "TimeOfDay");
        let b = ObjectKey::persistent("TimePOA", "Clock");
        assert_ne!(a, b);
        assert_ne!(a.hash16(), b.hash16());
    }

    #[test]
    fn short_keys_are_padded_long_keys_are_not_truncated() {
        let short = ObjectKey::persistent("P", "O");
        assert_eq!(short.as_bytes().len(), ObjectKey::CANONICAL_LEN);
        let long_name = "x".repeat(80);
        let long = ObjectKey::persistent("P", &long_name);
        assert!(long.as_bytes().len() > ObjectKey::CANONICAL_LEN);
        assert!(long.as_bytes().len() >= 80);
    }

    #[test]
    fn raw_roundtrip() {
        let k = ObjectKey::persistent("A", "B");
        assert_eq!(k, ObjectKey::from_slice(k.as_bytes()));
    }

    #[test]
    fn debug_strips_padding() {
        let k = ObjectKey::persistent("P", "O");
        assert_eq!(format!("{k:?}"), "ObjectKey(POA:P/OID:O)");
    }

    #[test]
    fn hash16_is_fletcher() {
        // Independent Fletcher-16 computation for a known input.
        let k = ObjectKey::from_slice(&[1, 2]);
        // a: 1 then 3; b: 1 then 4 -> 0x0403
        assert_eq!(k.hash16(), 0x0403);
    }
}

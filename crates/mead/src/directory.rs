//! The replica directory: who is in the group, in what order, and where.
//!
//! Each MEAD Fault-Tolerance Manager keeps this directory so it can pick
//! "the next non-faulty server replica in the group" (sections 4.1/4.3).
//! It is fed by GCS membership views, `AddrAdvert`/`IorAdvert` multicasts,
//! and the `SyncList` messages the first-listed replica sends after every
//! view change.
//!
//! Identity is typed: a replica slot is a [`Slot`] and a group member is a
//! [`MemberName`]. Member names still travel the wire as plain strings
//! (GCS views, `GroupMsg` adverts); the conversion happens once at the
//! directory boundary, so everything behind it is type-checked.

use std::collections::BTreeMap;
use std::fmt;

use giop::{Ior, ObjectKey};

/// Member-name prefix identifying replicas (other group members, like the
/// Recovery Manager, are ignored when selecting fail-over targets).
pub const REPLICA_PREFIX: &str = "replica/";

/// The replicas' group: replicas and the Recovery Manager join it, and a
/// client-side interceptor multicasts its address queries to it.
pub const SERVER_GROUP: &str = "servers";

/// A replica slot index (0-based). The Recovery Manager maintains one
/// intended live instance per slot; slot numbers are stable across
/// relaunches while ports and pids change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slot(pub u32);

impl Slot {
    /// The raw slot number.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A group-membership member name, e.g. `replica/2/77` or `mgr/recovery`.
///
/// Wraps the raw string that group-communication views and adverts carry,
/// adding the replica-name structure (`replica/<slot>/<pid>`) as methods.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemberName(String);

impl MemberName {
    /// Wraps a raw member-name string.
    pub fn new(name: impl Into<String>) -> Self {
        MemberName(name.into())
    }

    /// The raw string, as it appears in views and on the wire.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// `true` when this member is a replica (as opposed to, say, the
    /// Recovery Manager sharing the group).
    pub fn is_replica(&self) -> bool {
        self.0.starts_with(REPLICA_PREFIX)
    }

    /// The slot encoded in a replica member name, if any.
    pub fn slot(&self) -> Option<Slot> {
        slot_of_member(&self.0)
    }
}

impl fmt::Display for MemberName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<String> for MemberName {
    fn from(s: String) -> Self {
        MemberName(s)
    }
}

impl From<&str> for MemberName {
    fn from(s: &str) -> Self {
        MemberName(s.to_string())
    }
}

impl AsRef<str> for MemberName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl PartialEq<str> for MemberName {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for MemberName {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

/// Builds the canonical member name for a replica instance.
pub fn replica_member_name(slot: Slot, pid: u64) -> MemberName {
    MemberName(format!("{REPLICA_PREFIX}{slot}/{pid}"))
}

/// Extracts the slot number from a raw replica member name.
pub fn slot_of_member(member: &str) -> Option<Slot> {
    member
        .strip_prefix(REPLICA_PREFIX)?
        .split('/')
        .next()?
        .parse()
        .ok()
        .map(Slot)
}

/// Directory of live replicas and their advertised addresses/IORs.
#[derive(Clone, Debug, Default)]
pub struct ReplicaDirectory {
    /// Current view (all members, in view order).
    view: Vec<MemberName>,
    /// member -> (host, port)
    addrs: BTreeMap<MemberName, (String, u16)>,
    /// member -> advertised IORs, each stored with its precomputed 16-bit
    /// object-key hash (the point of section 4.1's optimisation is that
    /// the hash is computed once at registration, not per lookup).
    iors: BTreeMap<MemberName, Vec<(u16, Ior)>>,
}

impl ReplicaDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a new membership view (raw strings, straight off the GCS
    /// wire).
    ///
    /// Adverts of members that *departed* (present in the previous view,
    /// absent now) are garbage-collected so stale addresses are never
    /// handed out as fail-over targets. Adverts of processes not yet in
    /// the view are kept: a newcomer's advert may be ordered before its
    /// join view while the membership protocol deliberates.
    pub fn on_view(&mut self, members: Vec<String>) {
        let members: Vec<MemberName> = members.into_iter().map(MemberName).collect();
        let departed: Vec<MemberName> = self
            .view
            .iter()
            .filter(|m| !members.contains(m))
            .cloned()
            .collect();
        for m in &departed {
            self.addrs.remove(m);
            self.iors.remove(m);
        }
        self.view = members;
    }

    /// The current view, unfiltered.
    pub fn view(&self) -> &[MemberName] {
        &self.view
    }

    /// Live replicas, in view order.
    pub fn replicas(&self) -> impl Iterator<Item = &MemberName> {
        self.view.iter().filter(|m| m.is_replica())
    }

    /// Number of live replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas().count()
    }

    /// `true` if `member` is the first replica in the view (the paper's
    /// "first replica listed", responsible for sync and query answers).
    pub fn is_first_replica(&self, member: &MemberName) -> bool {
        self.replicas().next() == Some(member)
    }

    /// The next live replica after `member` in view order, wrapping, and
    /// excluding `member` itself — the fail-over target.
    pub fn next_after(&self, member: &MemberName) -> Option<&MemberName> {
        let replicas: Vec<&MemberName> = self.replicas().collect();
        if replicas.is_empty() {
            return None;
        }
        match replicas.iter().position(|m| *m == member) {
            Some(i) => {
                let next = replicas[(i + 1) % replicas.len()];
                (next != member).then_some(next)
            }
            // We are not (or no longer) in the view: any replica will do.
            None => Some(replicas[0]),
        }
    }

    /// Records an address advert (member name raw, off the wire).
    pub fn record_addr(&mut self, member: &str, host: &str, port: u16) {
        self.addrs
            .insert(MemberName::from(member), (host.to_string(), port));
    }

    /// Records an IOR advert (deduplicated by object key, hash computed
    /// once here).
    pub fn record_ior(&mut self, member: &str, ior: Ior) {
        let entry = self.iors.entry(MemberName::from(member)).or_default();
        let hash = ior
            .primary_profile()
            .map(|p| p.object_key.hash16())
            .unwrap_or(0);
        if let Some(profile) = ior.primary_profile() {
            entry.retain(|(_, existing)| {
                existing
                    .primary_profile()
                    .map(|p| p.object_key != profile.object_key)
                    .unwrap_or(true)
            });
        }
        entry.push((hash, ior));
    }

    /// Applies a `SyncList` of (member, host, port) triples.
    pub fn apply_sync(&mut self, entries: &[(String, String, u16)]) {
        for (m, h, p) in entries {
            self.addrs
                .insert(MemberName::from(m.as_str()), (h.clone(), *p));
        }
    }

    /// All known (member, host, port) triples, for emitting a `SyncList`.
    pub fn sync_entries(&self) -> Vec<(String, String, u16)> {
        self.addrs
            .iter()
            .map(|(m, (h, p))| (m.as_str().to_string(), h.clone(), *p))
            .collect()
    }

    /// Advertised address of `member`.
    pub fn addr_of(&self, member: &MemberName) -> Option<(&str, u16)> {
        self.addrs.get(member).map(|(h, p)| (h.as_str(), *p))
    }

    /// Looks up the IOR `member` advertises for `object_key`: by the
    /// 16-bit key hash first (section 4.1's optimisation), verified
    /// byte-wise on a hit.
    pub fn ior_of(&self, member: &MemberName, object_key: &ObjectKey) -> Option<&Ior> {
        let wanted_hash = object_key.hash16();
        self.iors
            .get(member)?
            .iter()
            .find(|(stored_hash, ior)| {
                *stored_hash == wanted_hash
                    && ior
                        .primary_profile()
                        .is_some_and(|p| p.object_key == *object_key)
            })
            .map(|(_, ior)| ior)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ior(host: &str, port: u16, obj: &str) -> Ior {
        Ior::singleton("IDL:T:1.0", host, port, ObjectKey::persistent("P", obj))
    }

    fn m(name: &str) -> MemberName {
        MemberName::from(name)
    }

    #[test]
    fn member_name_roundtrip() {
        let name = replica_member_name(Slot(2), 77);
        assert_eq!(name.as_str(), "replica/2/77");
        assert_eq!(name.slot(), Some(Slot(2)));
        assert!(name.is_replica());
        assert_eq!(slot_of_member(name.as_str()), Some(Slot(2)));
        assert_eq!(slot_of_member("mgr/recovery"), None);
        assert!(!m("mgr/recovery").is_replica());
        assert_eq!(Slot(3).index(), 3);
        assert_eq!(format!("{}", Slot(3)), "3");
    }

    #[test]
    fn replicas_filter_out_manager() {
        let mut d = ReplicaDirectory::new();
        d.on_view(vec![
            "mgr/recovery".into(),
            "replica/0/10".into(),
            "replica/1/11".into(),
        ]);
        assert_eq!(d.replica_count(), 2);
        assert!(!d.is_first_replica(&m("mgr/recovery")));
        assert!(!d.is_first_replica(&m("replica/1/11")));
        assert!(d.is_first_replica(&m("replica/0/10")));
    }

    #[test]
    fn next_after_wraps_and_excludes_self() {
        let mut d = ReplicaDirectory::new();
        d.on_view(vec![
            "replica/0/10".into(),
            "replica/1/11".into(),
            "replica/2/12".into(),
        ]);
        assert_eq!(d.next_after(&m("replica/0/10")), Some(&m("replica/1/11")));
        assert_eq!(d.next_after(&m("replica/2/12")), Some(&m("replica/0/10")));
        d.on_view(vec!["replica/0/10".into()]);
        assert_eq!(d.next_after(&m("replica/0/10")), None, "alone in the group");
        // Departed member still finds a target.
        d.on_view(vec!["replica/1/11".into()]);
        assert_eq!(d.next_after(&m("replica/0/10")), Some(&m("replica/1/11")));
    }

    #[test]
    fn view_change_garbage_collects_adverts() {
        let mut d = ReplicaDirectory::new();
        d.on_view(vec!["replica/0/10".into(), "replica/1/11".into()]);
        d.record_addr("replica/0/10", "node1", 20000);
        d.record_addr("replica/1/11", "node2", 20001);
        d.on_view(vec!["replica/1/11".into()]);
        assert_eq!(d.addr_of(&m("replica/0/10")), None);
        assert_eq!(d.addr_of(&m("replica/1/11")), Some(("node2", 20001)));
    }

    #[test]
    fn sync_entries_roundtrip() {
        let mut d = ReplicaDirectory::new();
        d.on_view(vec!["replica/0/10".into()]);
        d.record_addr("replica/0/10", "node1", 20000);
        let entries = d.sync_entries();
        let mut d2 = ReplicaDirectory::new();
        d2.on_view(vec!["replica/0/10".into()]);
        d2.apply_sync(&entries);
        assert_eq!(d2.addr_of(&m("replica/0/10")), Some(("node1", 20000)));
    }

    #[test]
    fn ior_lookup_by_key_hash() {
        let mut d = ReplicaDirectory::new();
        d.on_view(vec!["replica/0/10".into()]);
        d.record_ior("replica/0/10", ior("node1", 20000, "TimeOfDay"));
        d.record_ior("replica/0/10", ior("node1", 20000, "Counter"));
        let key = ObjectKey::persistent("P", "Counter");
        let found = d.ior_of(&m("replica/0/10"), &key).expect("found");
        assert_eq!(found.primary_profile().unwrap().object_key, key);
        let missing = ObjectKey::persistent("P", "Nope");
        assert!(d.ior_of(&m("replica/0/10"), &missing).is_none());
        let other = ObjectKey::persistent("P", "TimeOfDay");
        let found = d.ior_of(&m("replica/0/10"), &other).expect("both kept");
        assert_eq!(found.primary_profile().unwrap().object_key, other);
    }

    #[test]
    fn ior_readvert_replaces_same_key() {
        let mut d = ReplicaDirectory::new();
        d.on_view(vec!["replica/0/10".into()]);
        d.record_ior("replica/0/10", ior("node1", 20000, "TimeOfDay"));
        d.record_ior("replica/0/10", ior("node1", 30000, "TimeOfDay"));
        let key = ObjectKey::persistent("P", "TimeOfDay");
        let found = d.ior_of(&m("replica/0/10"), &key).expect("found");
        assert_eq!(found.primary_profile().unwrap().port, 30000);
    }
}

//! The Naming Service stores each binding as the IOR bytes it received.
//! Its replies must still be what a store of decoded IORs sends: each
//! bound IOR decoded and encoded again, so a foreign profile is dropped.
//! A malformed IOR is refused with `MARSHAL` and binds nothing.

use giop::{CdrWriter, Endian, Ior, ObjectKey};
use orb::{
    decode_list_reply, encode_bind, encode_name, Completed, NamingServant, Servant,
    SystemException, EX_NOT_FOUND,
};
use simnet::testkit::MockSys;
use simnet::{NodeId, SimDuration};

fn replica_ior(host: &str) -> Vec<u8> {
    Ior::singleton(
        "IDL:TimeOfDay:1.0",
        host,
        2810,
        ObjectKey::persistent("TimePOA", "TimeOfDay"),
    )
    .encode()
}

/// An IOR whose first profile has a tag no ORB here knows.
fn ior_with_foreign_profile() -> Vec<u8> {
    let mut profile = CdrWriter::new(Endian::Big);
    profile.write_u8(0);
    profile.write_u8(1);
    profile.write_u8(0);
    profile.write_string("node5");
    profile.write_u16(2811);
    profile.write_octets(ObjectKey::persistent("CounterPOA", "Counter").as_bytes());
    let mut w = CdrWriter::new(Endian::Big);
    w.write_string("IDL:Counter:1.0");
    w.write_u32(2);
    w.write_u32(99);
    w.write_octets(&[1, 2, 3]);
    w.write_u32(giop::TAG_INTERNET_IOP);
    w.write_octets(&profile.into_vec());
    w.into_vec()
}

/// A `bind` body carrying `ior` exactly as given.
fn bind_raw(name: &str, ior: &[u8]) -> Vec<u8> {
    let mut w = CdrWriter::new(Endian::Big);
    w.write_string(name);
    w.write_octets(ior);
    w.into_vec()
}

/// What a store of decoded IORs replies to `resolve`.
fn decoded_resolve_reply(ior: &[u8]) -> Vec<u8> {
    let mut w = CdrWriter::new(Endian::Big);
    w.write_octets(&Ior::decode(ior).expect("valid IOR").encode());
    w.into_vec()
}

/// What a store of decoded IORs replies to `list`.
fn decoded_list_reply(entries: &[(&str, &[u8])]) -> Vec<u8> {
    let mut w = CdrWriter::new(Endian::Big);
    w.write_u32(entries.len() as u32);
    for (name, ior) in entries {
        w.write_string(name);
        w.write_octets(&Ior::decode(ior).expect("valid IOR").encode());
    }
    w.into_vec()
}

fn marshal() -> SystemException {
    SystemException::Other {
        repo_id: "IDL:omg.org/CORBA/MARSHAL:1.0".into(),
        completed: Completed::No,
    }
}

#[test]
fn replies_are_the_decoded_store_replies() {
    let mut sys = MockSys::new(NodeId::from_index(0));
    let mut naming = NamingServant::default();
    let first = replica_ior("node1");
    let moved = replica_ior("node4");
    let foreign = ior_with_foreign_profile();

    let bind = |naming: &mut NamingServant, sys: &mut MockSys, name: &str, ior: &[u8]| {
        let reply = naming.invoke(sys, "bind", &bind_raw(name, ior));
        assert_eq!(reply, Ok(Vec::new()), "bind {name}");
    };
    bind(&mut naming, &mut sys, "replicas/slot0", &first);
    bind(&mut naming, &mut sys, "replicas/slot0", &first);
    bind(&mut naming, &mut sys, "replicas/slot1", &first);
    bind(&mut naming, &mut sys, "replicas/slot1", &moved);
    bind(&mut naming, &mut sys, "replicas/slot2", &foreign);
    bind(&mut naming, &mut sys, "other", &moved);
    assert_eq!(naming.len(), 4);
    assert_eq!(sys.counter("naming.bind"), 6);

    let resolve = |naming: &mut NamingServant, sys: &mut MockSys, name: &str| {
        naming.invoke(sys, "resolve", &encode_name(name))
    };
    assert_eq!(
        resolve(&mut naming, &mut sys, "replicas/slot0"),
        Ok(decoded_resolve_reply(&first))
    );
    assert_eq!(
        resolve(&mut naming, &mut sys, "replicas/slot1"),
        Ok(decoded_resolve_reply(&moved)),
        "a re-bind with another IOR replaces the first"
    );
    let foreign_reply = resolve(&mut naming, &mut sys, "replicas/slot2").expect("bound");
    assert_eq!(foreign_reply, decoded_resolve_reply(&foreign));
    assert!(
        foreign_reply.len() < foreign.len(),
        "the foreign profile is dropped"
    );
    assert_eq!(
        resolve(&mut naming, &mut sys, "replicas/slot9"),
        Err(SystemException::Other {
            repo_id: EX_NOT_FOUND.into(),
            completed: Completed::Yes,
        })
    );

    let list = naming
        .invoke(&mut sys, "list", &encode_name("replicas/"))
        .expect("list");
    assert_eq!(
        list,
        decoded_list_reply(&[
            ("replicas/slot0", &first),
            ("replicas/slot1", &moved),
            ("replicas/slot2", &foreign),
        ])
    );
    assert_eq!(decode_list_reply(&list).expect("decodes").len(), 3);

    // 6 binds, 4 resolves, one three-entry list.
    let expected_cpu = SimDuration::from_micros(6 * 200 + 4 * 900 + 900 + 2 * 650);
    assert_eq!(sys.cpu_charged(), expected_cpu);
}

#[test]
fn a_malformed_ior_raises_marshal_and_leaves_the_binding() {
    let mut sys = MockSys::new(NodeId::from_index(0));
    let mut naming = NamingServant::default();
    let good = replica_ior("node1");
    let body = encode_bind("replicas/slot0", &Ior::decode(&good).expect("valid IOR"));
    assert_eq!(naming.invoke(&mut sys, "bind", &body), Ok(Vec::new()));

    // The profile encapsulation's byte-order octet follows the type id
    // (4 + 18 bytes, 2 of padding), the profile count, the tag and the
    // body length.
    let mut little_endian = good.clone();
    assert_eq!(little_endian[36], 0);
    little_endian[36] = 1;
    let malformed = [
        good[..good.len() - 1].to_vec(),
        little_endian,
        vec![0xff; 8],
    ];
    for ior in &malformed {
        assert!(Ior::decode(ior).is_err(), "{ior:?} should not decode");
        for name in ["replicas/slot0", "replicas/slot1"] {
            assert_eq!(
                naming.invoke(&mut sys, "bind", &bind_raw(name, ior)),
                Err(marshal())
            );
        }
    }
    assert_eq!(naming.len(), 1);
    assert_eq!(sys.counter("naming.bind"), 1);
    assert_eq!(
        naming.invoke(&mut sys, "resolve", &encode_name("replicas/slot0")),
        Ok(decoded_resolve_reply(&good))
    );
    // A refused bind still costs its CPU.
    let expected_cpu = SimDuration::from_micros((1 + 6) * 200 + 900);
    assert_eq!(sys.cpu_charged(), expected_cpu);
}

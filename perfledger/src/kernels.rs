//! The micro-kernels: one fixed input per layer function, each defined
//! here once. A kernel reports the fastest of up to 15 samples; how long
//! a sample lasts follows from the run's `--seconds`.
//!
//! Kernels exist to say *where* an end-to-end change came from. They are
//! never an acceptance metric: added code is justified by `ns_per_op`.

use std::cell::Cell;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use experiments::{
    chaos_plan_space_for, expand_sweep, parse_sweep, run_chaos_plan, run_scenario, ScenarioConfig,
};
use explore::{explore, fixtures, minimize, run_prefix, ExploreConfig};
use faults::{FaultMix, FaultPlan, LeakConfig, MemoryLeak};
use giop::{
    Endian, FrameSplitter, Ior, Message, ObjectKey, ReplyBody, ReplyMessage, RequestMessage,
};
use groupcomm::{GcsClient, GcsConfig, GcsDaemon, GcsDelivery, GcsSplitter, GcsWire, GCS_PORT};
use lint::{AllowList, Contract};
use mead::{replica_member_name, FailoverNotice, GroupMsg, RecoveryScheme, ReplicaDirectory, Slot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{
    Addr, Event, FifoScheduler, GateCfg, NodeId, NoiseModel, Port, Process, RecvQueue,
    ReplayScheduler, Scheduler, SimConfig, SimDuration, SimTime, Simulation, Slab, SysApi,
    TimingWheel,
};

use crate::alloc;
use crate::workloads::{kernel_trace, Size};

/// Samples per kernel when the budget allows.
const SAMPLES: usize = 15;

/// Times closures under a per-kernel budget.
pub struct Sampler {
    budget: Duration,
    min_samples: usize,
}

impl Sampler {
    /// A sampler giving each kernel about `budget`, but never fewer than
    /// `min_samples` samples.
    pub fn new(budget: Duration, min_samples: usize) -> Sampler {
        Sampler {
            budget,
            min_samples,
        }
    }

    /// Host ns per unit of work in the fastest sample, where one call of
    /// `batch` does the number of units it returns. The first call warms
    /// up and sizes the samples.
    pub fn ns_per_unit(&self, mut batch: impl FnMut() -> u64) -> f64 {
        let started = Instant::now();
        black_box(batch());
        let once = started.elapsed().max(Duration::from_nanos(1));
        let target = self.budget / SAMPLES as u32;
        let reps = (target.as_nanos() / once.as_nanos()).clamp(1, 1 << 20) as u32;
        let mut samples = Vec::with_capacity(SAMPLES);
        while samples.len() < SAMPLES
            && (samples.len() < self.min_samples || started.elapsed() < self.budget)
        {
            let sample_started = Instant::now();
            let mut units = 0u64;
            for _ in 0..reps {
                units += batch();
            }
            let ns = sample_started.elapsed().as_nanos() as f64;
            samples.push(ns / units.max(1) as f64);
        }
        samples.into_iter().fold(f64::INFINITY, f64::min)
    }
}

/// Calls `f` `n` times and returns `n`: the usual body of a batch.
fn repeat(n: u64, mut f: impl FnMut()) -> u64 {
    for _ in 0..n {
        f();
    }
    n
}

/// splitmix64 finalizer, for scattered but fixed inputs.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn quiet() -> SimConfig {
    SimConfig {
        noise: NoiseModel::none(),
        ..SimConfig::default()
    }
}

// ------------------------------------------------------------- simnet

/// Pop the earliest of `n` pending entries and push it back a little
/// later: the requeue pattern that dominates the fleet scenarios.
fn wheel_steady(sampler: &Sampler, n: u64) -> f64 {
    let mut wheel = TimingWheel::new();
    for seq in 0..n {
        wheel.push(1_000_000 + (seq << 6), seq, seq);
    }
    let mut seq = n;
    let mut horizon = 1_000_000 + (n << 6);
    sampler.ns_per_unit(|| {
        repeat(4096, || {
            let (at, _, v) = wheel.pop_due(u64::MAX).expect("non-empty");
            horizon = horizon.max(at) + 40_000;
            wheel.push(horizon, seq, black_box(v));
            seq += 1;
        })
    })
}

/// Remove one of 1024 live slab entries and insert a replacement.
fn slab_churn(sampler: &Sampler) -> f64 {
    let mut slab: Slab<u64> = Slab::new();
    let mut keys: Vec<_> = (0..1024u64).map(|v| slab.insert(v)).collect();
    let mut i = 0u64;
    sampler.ns_per_unit(|| {
        repeat(4096, || {
            i += 1;
            let at = (mix(i) % 1024) as usize;
            let old = slab.remove(keys[at]).expect("live key");
            keys[at] = slab.insert(black_box(old + 1));
            black_box(slab.get(keys[at]));
        })
    })
}

struct Echo;
impl Process for Echo {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        sys.listen(Port(9)).expect("port free");
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        if let Event::DataReadable { conn } = ev {
            let got = sys.read(conn, usize::MAX).expect("open");
            if !got.data.is_empty() {
                let _ = sys.write(conn, &got.data);
            }
        }
    }
}

struct Pinger {
    target: Addr,
    remaining: u32,
}
impl Process for Pinger {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        sys.connect(self.target);
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        match ev {
            Event::ConnEstablished { conn } => {
                let _ = sys.write(conn, &[1u8; 64]);
            }
            Event::DataReadable { conn } => {
                let got = sys.read(conn, usize::MAX).expect("open");
                if !got.data.is_empty() && self.remaining > 0 {
                    self.remaining -= 1;
                    let _ = sys.write(conn, &got.data);
                }
            }
            _ => {}
        }
    }
}

/// 1000 Echo/Pinger round trips under `scheduler`; ns per round trip.
fn pingpong(sampler: &Sampler, scheduler: fn() -> Box<dyn Scheduler>) -> f64 {
    const ROUND_TRIPS: u32 = 1000;
    sampler.ns_per_unit(|| {
        let mut sim = Simulation::with_scheduler(quiet(), scheduler());
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        sim.spawn(a, "echo", Box::new(Echo));
        sim.spawn(
            b,
            "pinger",
            Box::new(Pinger {
                target: Addr::new(a, Port(9)),
                remaining: ROUND_TRIPS,
            }),
        );
        sim.run_until(SimTime::from_secs(10));
        black_box(sim.events_processed());
        u64::from(ROUND_TRIPS)
    })
}

/// A server that stays busy 50 µs per read, so simultaneous arrivals
/// park behind it: the notify herd in isolation.
struct BusySink {
    reads: Rc<Cell<u32>>,
}
impl Process for BusySink {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        sys.listen(Port(9)).expect("port free");
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        if let Event::DataReadable { conn } = ev {
            let got = sys.read(conn, usize::MAX).expect("open");
            if !got.data.is_empty() {
                self.reads.set(self.reads.get() + 1);
                sys.charge_cpu(SimDuration::from_micros(50));
            }
        }
    }
}

struct OneShot {
    target: Addr,
}
impl Process for OneShot {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        sys.connect(self.target);
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        if let Event::ConnEstablished { conn } = ev {
            let _ = sys.write(conn, &[1u8; 64]);
        }
    }
}

/// 1000 senders on 16 nodes write to one busy server at one instant; ns
/// per delivery.
fn fanin(sampler: &Sampler) -> f64 {
    const SENDERS: u32 = 1000;
    sampler.ns_per_unit(|| {
        let mut sim = Simulation::new(quiet());
        let hub = sim.add_node("hub");
        let reads = Rc::new(Cell::new(0));
        sim.spawn(
            hub,
            "sink",
            Box::new(BusySink {
                reads: Rc::clone(&reads),
            }),
        );
        let nodes: Vec<NodeId> = (0..16).map(|i| sim.add_node(&format!("n{i}"))).collect();
        for i in 0..SENDERS {
            sim.spawn(
                nodes[i as usize % nodes.len()],
                "sender",
                Box::new(OneShot {
                    target: Addr::new(hub, Port(9)),
                }),
            );
        }
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(reads.get(), SENDERS, "every sender's write is read once");
        u64::from(SENDERS)
    })
}

/// 64 KiB arriving as 64-byte segments, then one full drain; ns per KiB.
fn recv_queue(sampler: &Sampler) -> f64 {
    let segment = Bytes::from(vec![0xABu8; 64]);
    sampler.ns_per_unit(|| {
        let mut q = RecvQueue::new();
        for _ in 0..1024 {
            q.push(segment.clone());
        }
        black_box(q.read(usize::MAX));
        64
    })
}

struct Idle;
impl Process for Idle {
    fn on_start(&mut self, _sys: &mut dyn SysApi) {}
    fn on_event(&mut self, _sys: &mut dyn SysApi, _ev: Event) {}
}

/// A new simulation, five nodes, eight idle processes started; ns each.
fn boot(sampler: &Sampler) -> f64 {
    sampler.ns_per_unit(|| {
        let mut sim = Simulation::new(quiet());
        let nodes: Vec<NodeId> = (0..5).map(|i| sim.add_node(&format!("n{i}"))).collect();
        for i in 0..8 {
            sim.spawn(nodes[i % nodes.len()], "idle", Box::new(Idle));
        }
        sim.run_until(SimTime::from_millis(1));
        black_box(sim.events_processed());
        1
    })
}

// --------------------------------------------------------------- giop

fn sample_request() -> Message {
    Message::Request(RequestMessage {
        request_id: 42,
        response_expected: true,
        object_key: ObjectKey::persistent("TimePOA", "TimeOfDay"),
        operation: "time_of_day".into(),
        body: vec![0u8; 16],
    })
}

fn sample_reply() -> Message {
    Message::Reply(ReplyMessage {
        request_id: 42,
        body: ReplyBody::NoException(vec![0u8; 16]),
    })
}

fn giop(sampler: &Sampler, out: &mut Vec<(&'static str, f64)>) {
    let request = sample_request();
    let reply = sample_reply();
    let wire_request = request.encode(Endian::Big);
    let wire_reply = reply.encode(Endian::Big);
    out.push((
        "giop.encode_request_ns",
        sampler.ns_per_unit(|| {
            repeat(1024, || {
                drop(black_box(black_box(&request).encode(Endian::Big)))
            })
        }),
    ));
    // The LOCATION_FORWARD scheme's per-message work: a full decode.
    out.push((
        "giop.decode_request_ns",
        sampler.ns_per_unit(|| {
            repeat(1024, || {
                black_box(Message::decode(black_box(&wire_request)).expect("well-formed"));
            })
        }),
    ));
    out.push((
        "giop.encode_reply_ns",
        sampler.ns_per_unit(|| {
            repeat(1024, || {
                drop(black_box(black_box(&reply).encode(Endian::Big)))
            })
        }),
    ));
    out.push((
        "giop.decode_reply_ns",
        sampler.ns_per_unit(|| {
            repeat(1024, || {
                black_box(Message::decode(black_box(&wire_reply)).expect("well-formed"));
            })
        }),
    ));
    // The MEAD scheme's per-message work: a header-only frame scan.
    out.push((
        "giop.frame_scan_ns",
        sampler.ns_per_unit(|| {
            repeat(1024, || {
                let mut splitter = FrameSplitter::new();
                splitter.push(black_box(&wire_reply));
                black_box(
                    splitter
                        .next_frame()
                        .expect("well-formed")
                        .expect("complete"),
                );
            })
        }),
    ));
    let ior = Ior::singleton(
        "IDL:TimeOfDay:1.0",
        "node2",
        20001,
        ObjectKey::persistent("TimePOA", "TimeOfDay"),
    );
    out.push((
        "giop.ior_roundtrip_ns",
        sampler.ns_per_unit(|| {
            repeat(1024, || {
                let bytes = black_box(&ior).encode();
                black_box(Ior::decode(&bytes).expect("well-formed"));
            })
        }),
    ));
    let key = ObjectKey::persistent("TimePOA", "TimeOfDay");
    out.push((
        "giop.key_hash16_ns",
        sampler.ns_per_unit(|| {
            repeat(4096, || {
                black_box(black_box(&key).hash16());
            })
        }),
    ));
    let (_, heap) = alloc::count(|| black_box(request.encode(Endian::Big)));
    out.push(("giop.encode_request_allocs", heap.allocs as f64));
    let (_, heap) = alloc::count(|| black_box(Message::decode(&wire_request)));
    out.push(("giop.decode_request_allocs", heap.allocs as f64));
}

// --------------------------------------------------------------- mead

fn mead_kernels(sampler: &Sampler, out: &mut Vec<(&'static str, f64)>) {
    let notice = FailoverNotice::new("node2", 20001, "replica/0/7");
    out.push((
        "mead.notice_roundtrip_ns",
        sampler.ns_per_unit(|| {
            repeat(1024, || {
                let wire = black_box(&notice).encode();
                let mut splitter = FrameSplitter::new();
                splitter.push(&wire);
                let frame = splitter
                    .next_frame()
                    .expect("well-formed")
                    .expect("complete");
                black_box(FailoverNotice::decode(&frame).expect("well-formed"));
            })
        }),
    ));
    // The checkpoint is the group message steady state sends most.
    let checkpoint = GroupMsg::Checkpoint {
        member: "replica/0/7".into(),
        state: vec![0x5A; 64],
    };
    out.push((
        "mead.group_msg_roundtrip_ns",
        sampler.ns_per_unit(|| {
            repeat(1024, || {
                let wire = black_box(&checkpoint).encode();
                black_box(GroupMsg::decode(&wire).expect("well-formed"));
            })
        }),
    ));
    let view = |pids: [u64; 3]| -> Vec<String> {
        let mut members: Vec<String> = pids
            .iter()
            .enumerate()
            .map(|(slot, &pid)| {
                replica_member_name(Slot(slot as u32), pid)
                    .as_str()
                    .to_string()
            })
            .collect();
        members.push("recovery-manager/0".into());
        members.push("client/0".into());
        members
    };
    let views = [view([7, 8, 9]), view([7, 11, 9])];
    out.push((
        "mead.directory_on_view_ns",
        sampler.ns_per_unit(|| {
            let mut directory = ReplicaDirectory::new();
            let mut i = 0usize;
            repeat(1024, || {
                i += 1;
                directory.on_view(black_box(views[i % 2].clone()));
                black_box(directory.replica_count());
            })
        }),
    ));
}

// ---------------------------------------------------------- groupcomm

/// A member that multicasts `to_send` messages once all three members
/// share a view, and counts deliveries.
struct Blaster {
    gcs: GcsClient,
    to_send: u32,
    received: Rc<Cell<u32>>,
}
impl Process for Blaster {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.gcs.start(sys);
        self.gcs.join(sys, "bench");
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        let Some(deliveries) = self.gcs.handle_event(sys, &ev) else {
            return;
        };
        for delivery in deliveries {
            match delivery {
                GcsDelivery::View { members, .. } if members.len() == 3 => {
                    for _ in 0..std::mem::take(&mut self.to_send) {
                        self.gcs.multicast(sys, "bench", &[7u8; 100]);
                    }
                }
                GcsDelivery::Message { .. } => self.received.set(self.received.get() + 1),
                _ => {}
            }
        }
    }
}

fn groupcomm_kernels(sampler: &Sampler, out: &mut Vec<(&'static str, f64)>) {
    let multicast = GcsWire::Multicast {
        group: "bench".into(),
        payload: vec![7u8; 100],
    };
    out.push((
        "groupcomm.wire_roundtrip_ns",
        sampler.ns_per_unit(|| {
            repeat(1024, || {
                let wire = black_box(&multicast).encode();
                let mut splitter = GcsSplitter::new();
                splitter.push(&wire);
                black_box(
                    splitter
                        .next_message()
                        .expect("well-formed")
                        .expect("complete"),
                );
            })
        }),
    ));
    const MESSAGES: u32 = 1000;
    out.push((
        "groupcomm.multicast_ns_per_delivery",
        sampler.ns_per_unit(|| {
            let mut sim = Simulation::new(quiet());
            let nodes: Vec<NodeId> = (0..3).map(|i| sim.add_node(&format!("n{i}"))).collect();
            let sequencer = Addr::new(nodes[0], GCS_PORT);
            for &node in &nodes {
                sim.spawn(
                    node,
                    "daemon",
                    Box::new(GcsDaemon::new(sequencer, GcsConfig::default())),
                );
            }
            let received = Rc::new(Cell::new(0));
            for (i, &node) in nodes.iter().enumerate() {
                sim.spawn(
                    node,
                    "blaster",
                    Box::new(Blaster {
                        gcs: GcsClient::new(format!("m{i}"), 100),
                        to_send: if i == 0 { MESSAGES } else { 0 },
                        received: Rc::clone(&received),
                    }),
                );
            }
            sim.run_until(SimTime::from_secs(5));
            assert_eq!(
                received.get(),
                MESSAGES * 3,
                "every member sees every message"
            );
            u64::from(MESSAGES) * 3
        }),
    ));
}

// ------------------------------------------------------------- faults

fn faults_kernels(sampler: &Sampler, out: &mut Vec<(&'static str, f64)>) {
    let space = chaos_plan_space_for(3, 1);
    let zoo = FaultMix::all();
    let mut seed = 0u64;
    out.push((
        "faults.plan_generate_us",
        sampler.ns_per_unit(|| {
            repeat(64, || {
                seed += 1;
                black_box(FaultPlan::generate_with(seed, &space, &zoo));
            })
        }) / 1e3,
    ));
    let plan = FaultPlan::generate_with(2004, &space, &zoo);
    out.push((
        "faults.plan_validate_us",
        sampler.ns_per_unit(|| {
            repeat(64, || {
                black_box(black_box(&plan).validate(&space)).expect("generated plans validate");
            })
        }) / 1e3,
    ));
    let mut leak = MemoryLeak::new(LeakConfig::default());
    leak.activate();
    let mut rng = StdRng::seed_from_u64(7);
    out.push((
        "faults.leak_step_ns",
        sampler.ns_per_unit(|| {
            repeat(4096, || {
                black_box(leak.step(&mut rng));
                if leak.is_exhausted() {
                    leak.reset();
                    leak.activate();
                }
            })
        }),
    ));
}

// ------------------------------------------------- obs and experiments

fn obs_kernels(sampler: &Sampler, out: &mut Vec<(&'static str, f64)>) {
    out.push((
        "obs.emit_ns",
        sampler.ns_per_unit(|| {
            // A fresh recorder per batch, so buffer growth is paid the
            // way a run pays it.
            let mut recorder = obs::Recorder::with_level(obs::TraceLevel::Kernel);
            let n = repeat(4096, || {
                recorder.emit(
                    black_box(1_000),
                    1,
                    7,
                    obs::EventKind::Dispatch {
                        action: "deliver_data",
                    },
                );
            });
            black_box(recorder.events().len());
            n
        }),
    ));
    // A real kernel-level trace with fail-overs in it: 3000 invocations
    // of the MEAD scheme cross the rejuvenation threshold several times.
    let outcome = run_scenario(&ScenarioConfig {
        tweak: Some(kernel_trace),
        ..ScenarioConfig::quick(RecoveryScheme::MeadFailover, 3000)
    });
    let events = outcome.trace.len() as u64;
    assert!(events > 10_000, "kernel-level trace is write-heavy");
    out.push((
        "obs.jsonl_ns_per_event",
        sampler.ns_per_unit(|| {
            black_box(obs::jsonl::to_jsonl(black_box(&outcome.trace)));
            events
        }),
    ));
    out.push((
        "obs.episodes_ns_per_event",
        sampler.ns_per_unit(|| {
            black_box(obs::episodes(black_box(&outcome.trace)));
            events
        }),
    ));
    let mut histogram = obs::Histogram::new();
    let mut i = 0u64;
    out.push((
        "obs.hist_record_ns",
        sampler.ns_per_unit(|| {
            repeat(4096, || {
                i += 1;
                histogram.record(black_box(mix(i) >> 40));
            })
        }),
    ));
    out.push((
        "experiments.digest_ns_per_trace_event",
        sampler.ns_per_unit(|| {
            black_box(black_box(&outcome).digest());
            events
        }),
    ));
}

fn experiments_kernels(
    sampler: &Sampler,
    root: &Path,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let path = root.join("scenarios/sweep-full.toml");
    let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    out.push((
        "tomlite.parse_us_per_kib",
        sampler.ns_per_unit(|| repeat(16, || drop(black_box(tomlite::parse(black_box(&src))))))
            / 1e3
            / (src.len() as f64 / 1024.0),
    ));
    out.push((
        "experiments.parse_sweep_us",
        sampler.ns_per_unit(|| repeat(16, || drop(black_box(parse_sweep(black_box(&src)))))) / 1e3,
    ));
    let spec = parse_sweep(&src).map_err(|e| e.to_string())?;
    out.push((
        "experiments.expand_sweep_ms",
        sampler.ns_per_unit(|| {
            black_box(expand_sweep(black_box(&spec))).expect("checked-in scenario expands");
            1
        }) / 1e6,
    ));
    let pair = fixtures::pair();
    out.push((
        "experiments.chaos_plan_us",
        sampler.ns_per_unit(|| {
            black_box(run_chaos_plan(&pair.plan, &pair.chaos));
            1
        }) / 1e3,
    ));
    Ok(())
}

// ------------------------------------------------------------ explore

fn explore_kernels(sampler: &Sampler, out: &mut Vec<(&'static str, f64)>) {
    let pair = fixtures::pair();
    // ÷ experiments.chaos_plan_us = what the choosing path costs on a
    // real scenario.
    out.push((
        "explore.run_prefix_us",
        sampler.ns_per_unit(|| {
            black_box(run_prefix(&pair.plan, &pair.chaos, pair.gate, &[]));
            1
        }) / 1e3,
    ));

    let bug = fixtures::seeded_bug();
    let search = |max_runs: usize| {
        explore(
            &bug.plan,
            &bug.chaos,
            &ExploreConfig {
                gate: bug.gate,
                max_runs,
                max_depth: 12,
                threads: 1,
                relation: None,
            },
        )
    };
    // The search visits prefixes in an order that does not depend on the
    // budget, so "caught within b runs" is monotone in b: double until
    // caught, then bisect for the smallest budget that catches.
    const CEILING: usize = 1024;
    let mut hi = 1usize;
    while hi < CEILING && search(hi).failures.is_empty() {
        hi *= 2;
    }
    let caught = search(hi);
    let Some(first) = caught.failures.first() else {
        out.push(("explore.seeded_bug_runs_to_catch", 0.0));
        out.push(("explore.minimize_ms", 0.0));
        return;
    };
    let mut lo = hi / 2; // not caught within lo (or lo == 0)
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if search(mid).failures.is_empty() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    out.push(("explore.seeded_bug_runs_to_catch", hi as f64));
    let witness: Vec<u64> = first.trace.decisions.iter().map(|d| d.chosen).collect();
    out.push((
        "explore.minimize_ms",
        sampler.ns_per_unit(|| {
            black_box(minimize(&bug.plan, &bug.chaos, bug.gate, &witness, 200))
                .expect("the witness fails");
            1
        }) / 1e6,
    ));
}

// --------------------------------------------------------------- lint

/// The contracts `detlint --timings` builds: each rule alone, on top of
/// a contract with nothing enabled.
fn single_rule_contracts(full: &Contract) -> Vec<(&'static str, Contract)> {
    let floor = Contract {
        r1_scopes: Vec::new(),
        r2_scopes: Vec::new(),
        r3_scopes: Vec::new(),
        r4_scopes: Vec::new(),
        r5_scopes: Vec::new(),
        r5_sinks: Vec::new(),
        r6_scopes: Vec::new(),
        r7_scopes: Vec::new(),
        protocol_enums: full.protocol_enums.clone(),
        conformance: None,
        fsm: None,
        dataflow: None,
        effects: None,
    };
    let f = floor.clone();
    vec![
        ("lint.parse_floor_ms", floor),
        (
            "lint.rule_ms.R1",
            Contract {
                r1_scopes: full.r1_scopes.clone(),
                ..f.clone()
            },
        ),
        (
            "lint.rule_ms.R2",
            Contract {
                r2_scopes: full.r2_scopes.clone(),
                ..f.clone()
            },
        ),
        (
            "lint.rule_ms.R3",
            Contract {
                r3_scopes: full.r3_scopes.clone(),
                ..f.clone()
            },
        ),
        (
            "lint.rule_ms.R4",
            Contract {
                r4_scopes: full.r4_scopes.clone(),
                ..f.clone()
            },
        ),
        (
            "lint.rule_ms.R5",
            Contract {
                r5_scopes: full.r5_scopes.clone(),
                r5_sinks: full.r5_sinks.clone(),
                ..f.clone()
            },
        ),
        (
            "lint.rule_ms.R6",
            Contract {
                r6_scopes: full.r6_scopes.clone(),
                ..f.clone()
            },
        ),
        (
            "lint.rule_ms.R7",
            Contract {
                r7_scopes: full.r7_scopes.clone(),
                ..f.clone()
            },
        ),
        (
            "lint.rule_ms.R8",
            Contract {
                conformance: full.conformance.clone(),
                ..f.clone()
            },
        ),
        (
            "lint.rule_ms.R9",
            Contract {
                fsm: full.fsm.clone(),
                ..f.clone()
            },
        ),
        (
            "lint.rule_ms.R10",
            Contract {
                dataflow: full.dataflow.clone(),
                ..f.clone()
            },
        ),
        // R11/R12 need the R9 extraction, so this row includes it.
        (
            "lint.rule_ms.R11-R12",
            Contract {
                fsm: full.fsm.clone(),
                effects: full.effects.clone(),
                ..f
            },
        ),
    ]
}

fn lint_kernels(
    sampler: &Sampler,
    root: &Path,
    size: Size,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    out.push((
        "lint.collect_sources_ms",
        sampler.ns_per_unit(|| {
            black_box(lint::collect_sources(root)).expect("the tree is readable");
            1
        }) / 1e6,
    ));
    let mut sources = lint::collect_sources(root).map_err(|e| e.to_string())?;
    if size == Size::Check {
        sources.retain(|(path, _)| path.starts_with("crates/giop/"));
    }
    let full = lint::load_spec(root, &Contract::default()).map_err(|e| e.to_string())?;
    // An empty allow-list keeps suppression cost out of the rule rows.
    let no_allow = AllowList::empty();
    for (name, contract) in single_rule_contracts(&full) {
        out.push((
            name,
            sampler.ns_per_unit(|| {
                black_box(lint::lint_files(&sources, &contract, &no_allow))
                    .expect("the tree lexes");
                1
            }) / 1e6,
        ));
    }
    let kib = sources.iter().map(|(_, src)| src.len()).sum::<usize>() as f64 / 1024.0;
    out.push((
        "synlite.parse_us_per_kib",
        sampler.ns_per_unit(|| {
            for (_, src) in &sources {
                black_box(synlite::parse_file(src)).expect("the tree lexes");
            }
            1
        }) / 1e3
            / kib,
    ));
    Ok(())
}

/// Runs every kernel and returns `(metric name, value)` pairs, giving
/// the whole set about `budget` of host time (kernels whose single call
/// outlasts their share still take three samples). At `Size::Check`
/// every kernel runs once after its warm-up and the lint kernels see one
/// crate, which is enough to show they work.
///
/// # Errors
///
/// When a fixed input cannot be read from `root`.
pub fn run_all(
    root: &Path,
    budget: Duration,
    size: Size,
) -> Result<Vec<(&'static str, f64)>, String> {
    /// Kernels that share the budget (the counts ride along for free).
    const TIMED_KERNELS: u32 = 55;
    let min_samples = if size == Size::Check { 1 } else { 3 };
    let sampler = Sampler::new(budget / TIMED_KERNELS, min_samples);
    let fifo: fn() -> Box<dyn Scheduler> = || Box::new(FifoScheduler);
    let choosing: fn() -> Box<dyn Scheduler> =
        || Box::new(ReplayScheduler::new(GateCfg::default(), Vec::new()));
    let mut out = vec![
        (
            "simnet.wheel_ns_per_event_1k",
            wheel_steady(&sampler, 1_000),
        ),
        (
            "simnet.wheel_ns_per_event_100k",
            wheel_steady(&sampler, 100_000),
        ),
        ("simnet.slab_churn_ns", slab_churn(&sampler)),
        ("simnet.pingpong_fifo_ns", pingpong(&sampler, fifo)),
        // ÷ pingpong_fifo_ns = the price of the second dispatch loop.
        ("simnet.pingpong_choosing_ns", pingpong(&sampler, choosing)),
        ("simnet.fanin_ns_per_delivery", fanin(&sampler)),
        ("simnet.recv_queue_ns_per_kib", recv_queue(&sampler)),
        ("simnet.boot_us", boot(&sampler) / 1e3),
    ];
    giop(&sampler, &mut out);
    mead_kernels(&sampler, &mut out);
    groupcomm_kernels(&sampler, &mut out);
    faults_kernels(&sampler, &mut out);
    obs_kernels(&sampler, &mut out);
    experiments_kernels(&sampler, root, &mut out)?;
    explore_kernels(&sampler, &mut out);
    lint_kernels(&sampler, root, size, &mut out)?;
    Ok(out)
}

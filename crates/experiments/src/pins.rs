//! What a run's digest covers, and the value it is pinned at (DESIGN §9
//! "Pinned runs").
//!
//! An outcome lists its named [`Components`]: its records or
//! acknowledged values, views and violations, each counter by value,
//! each byte series, its trace split by event kind (plus the order of
//! the kinds) and `finished_at`. The event count is kernel work, not
//! behaviour, and is not a part: a kernel change that only moves how many
//! events a run dispatches moves no pin. Its `digest()` is
//! [`Components::digest`], one fold over those parts, so two outcomes
//! with equal digests are equal part by part, and two with unequal
//! digests can say which parts moved. A batch of runs (a sweep, a
//! fleet) lists the same parts, each folded across its runs
//! ([`Components::batch`]).
//!
//! `pins.toml` at the repository root holds every pinned run once: its
//! counts and its components, whose fold is its digest (a run without
//! components, such as an explorer search, by its digest alone).
//! [`hold`] compares runs with their entries; a mismatch names the
//! components that moved and prints the entry that would re-pin the run,
//! so a deliberate re-pin is an edit of that one file.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use obs::TraceEvent;
use simnet::{Fnv, Metrics};
use tomlite::TomlError;

/// One named part of an outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Component {
    /// What kind of part: `records`, `values`, `views`, `violations`,
    /// `counter`, `bytes`, `trace`, a scalar (`finished_at`,
    /// `workload_start`), or a batch's `plans`/`groups`.
    pub class: &'static str,
    /// Which part of its class: the counter, byte tag or event kind;
    /// empty for a class of one and for `trace`, the order of the kinds.
    pub name: &'static str,
    /// How many items it holds: a counter's or scalar's value, a series'
    /// records, a trace kind's events, a batch's summed count.
    pub count: u64,
    /// The fold of those items; `None` for a part pinned by value alone
    /// (a counter or a scalar of one run).
    pub digest: Option<u64>,
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.class)?;
        if !self.name.is_empty() {
            write!(f, ".{}", self.name)?;
        }
        Ok(())
    }
}

/// An outcome's parts, in key order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Components(Vec<Component>);

impl Components {
    /// Starts an outcome's component list.
    pub(crate) fn builder() -> Builder {
        Builder(Vec::new())
    }

    /// The parts, in key order.
    pub fn iter(&self) -> impl Iterator<Item = &Component> {
        self.0.iter()
    }

    /// The parts by key, as a pin holds them.
    fn parts(&self) -> Parts {
        self.0
            .iter()
            .map(|c| (c.to_string(), (c.count, c.digest)))
            .collect()
    }

    /// The outcome digest: one FNV-1a fold of every part's key, count and
    /// digest, in key order.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for c in &self.0 {
            h.bytes(c.class.as_bytes());
            h.bytes(b".");
            h.bytes(c.name.as_bytes());
            h.u64(c.count);
            if let Some(d) = c.digest {
                h.u64(d);
            }
        }
        h.finish()
    }

    /// The parts of a batch of runs: per key, the count summed over the
    /// runs and a fold of each run's index, count and digest; plus a
    /// `unit` part (`plans`, `groups`) counting the runs and folding
    /// their labels.
    pub fn batch<L, C>(unit: &'static str, runs: impl IntoIterator<Item = (L, C)>) -> Components
    where
        L: AsRef<[u8]>,
        C: Borrow<Components>,
    {
        let mut parts: BTreeMap<(&'static str, &'static str), (u64, Fnv)> = BTreeMap::new();
        let mut labels = Fnv::new();
        let mut n = 0u64;
        for (label, run) in runs {
            labels.bytes(label.as_ref());
            labels.bytes(b"\n");
            for c in run.borrow().iter() {
                let (count, h) = parts.entry((c.class, c.name)).or_default();
                *count = count.wrapping_add(c.count);
                h.u64(n);
                h.u64(c.count);
                if let Some(d) = c.digest {
                    h.u64(d);
                }
            }
            n += 1;
        }
        let mut out = Builder(Vec::with_capacity(parts.len() + 1));
        out.part(unit, n, labels);
        for ((class, name), (count, h)) in parts {
            out.0.push(Component {
                class,
                name,
                count,
                digest: Some(h.finish()),
            });
        }
        out.finish()
    }
}

/// The fold of a [`Builder::words`] part.
pub(crate) struct Words(Fnv);

impl Words {
    /// Folds one word.
    pub(crate) fn put(&mut self, word: u64) {
        self.0.u64(word);
    }
}

/// Collects an outcome's parts; [`Builder::finish`] puts them in key
/// order.
pub(crate) struct Builder(Vec<Component>);

impl Builder {
    fn part(&mut self, class: &'static str, count: u64, h: Fnv) {
        self.0.push(Component {
            class,
            name: "",
            count,
            digest: Some(h.finish()),
        });
    }

    /// A part of `count` items, folded as the 64-bit words `fold` puts.
    pub(crate) fn words(&mut self, class: &'static str, count: u64, fold: impl FnOnce(&mut Words)) {
        let mut words = Words(Fnv::new());
        fold(&mut words);
        self.part(class, count, words.0);
    }

    /// A part of `count` items, folded as `lines`, each ended by `\n`.
    pub(crate) fn lines<'a>(
        &mut self,
        class: &'static str,
        count: u64,
        lines: impl IntoIterator<Item = &'a str>,
    ) {
        let mut h = Fnv::new();
        for line in lines {
            h.bytes(line.as_bytes());
            h.bytes(b"\n");
        }
        self.part(class, count, h);
    }

    /// A scalar, pinned by value.
    pub(crate) fn value(&mut self, class: &'static str, value: u64) {
        self.0.push(Component {
            class,
            name: "",
            count: value,
            digest: None,
        });
    }

    /// Each counter by value, and each byte series as its records'
    /// `(at, len)` fold.
    pub(crate) fn metrics(&mut self, metrics: &Metrics) {
        for (name, value) in metrics.counters() {
            self.0.push(Component {
                class: "counter",
                name,
                count: value,
                digest: None,
            });
        }
        for tag in metrics.byte_tags() {
            let records = metrics.byte_records(tag);
            let count = records.len() as u64;
            let mut h = Fnv::new();
            for rec in records {
                h.u64(rec.at.as_nanos());
                h.u64(rec.len);
            }
            self.0.push(Component {
                class: "bytes",
                name: tag,
                count,
                digest: Some(h.finish()),
            });
        }
    }

    /// The trace split by event kind: per kind, its event count and a
    /// fold of its canonical JSONL lines without their `seq`; and `trace`
    /// itself, the event count and the sequence of kinds (each as the
    /// one-byte index of its first appearance). The kinds' lines and their order
    /// make the whole trace, yet an event added or lost moves only its
    /// own kind and `trace`. One pass, one reused line buffer.
    pub(crate) fn trace(&mut self, trace: &[TraceEvent]) {
        let mut kinds: Vec<(&'static str, u64, Fnv)> = Vec::new();
        let mut order = Fnv::new();
        let mut line = String::with_capacity(160);
        for ev in trace {
            line.clear();
            obs::jsonl::push_event_line(&mut line, ev);
            // `{"seq":N,"at":…` → `"at":…`
            let body = line.split_once(',').map_or(line.as_str(), |(_, body)| body);
            let kind = ev.kind.name();
            let at = match kinds.iter().position(|(k, ..)| *k == kind) {
                Some(at) => at,
                None => {
                    kinds.push((kind, 0, Fnv::new()));
                    kinds.len() - 1
                }
            };
            order.bytes(&[u8::try_from(at).unwrap_or(u8::MAX)]);
            if let Some((_, count, h)) = kinds.get_mut(at) {
                *count += 1;
                h.bytes(body.as_bytes());
            }
        }
        self.part("trace", trace.len() as u64, order);
        for (name, count, h) in kinds {
            self.0.push(Component {
                class: "trace",
                name,
                count,
                digest: Some(h.finish()),
            });
        }
    }

    /// The parts in key order.
    pub(crate) fn finish(mut self) -> Components {
        self.0.sort_unstable_by_key(|c| (c.class, c.name));
        Components(self.0)
    }
}

/// The counts a pin may hold besides its digest or components: explorer `runs`,
/// distinct `outcomes` and `violating` runs, `exhausted` (1 or 0), sweep
/// `plans`, and kernel `events`.
const COUNTS: [&str; 6] = [
    "runs",
    "outcomes",
    "violating",
    "exhausted",
    "plans",
    "events",
];

/// Named values, each a count and, for a folded part, its digest: a
/// pin's counts or its components, by key.
type Parts = BTreeMap<String, (u64, Option<u64>)>;

/// What a run is pinned by besides its counts.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Pinned {
    /// One digest, for a run without components (an explorer search, a
    /// decision trace).
    Digest(u64),
    /// Its components, whose fold is its digest.
    Components(Parts),
}

/// A run as `pins.toml` pins it, or as a test produced it, to compare
/// with its pin.
#[derive(Clone, Debug)]
pub struct Run {
    /// Its counts (`plans`, `violating`, `runs`, …).
    counts: Parts,
    pinned: Pinned,
}

impl Run {
    /// A run known by its components.
    pub fn of(components: Components) -> Run {
        Run {
            counts: Parts::new(),
            pinned: Pinned::Components(components.parts()),
        }
    }

    /// A run known by one digest (an explorer search, a decision trace).
    pub fn digest(digest: u64) -> Run {
        Run {
            counts: Parts::new(),
            pinned: Pinned::Digest(digest),
        }
    }

    /// Adds a count.
    pub fn count(mut self, name: &str, value: u64) -> Run {
        self.counts.insert(name.to_string(), (value, None));
        self
    }

    /// The `pins.toml` entry that pins this run at `key`.
    fn entry(&self, key: &str) -> String {
        let mut out = format!("[[run]]\nkey = \"{key}\"\n");
        if let Pinned::Digest(d) = self.pinned {
            out.push_str(&format!("digest = \"{d:016x}\"\n"));
        }
        for (name, (value, _)) in &self.counts {
            out.push_str(&format!("{name} = {value}\n"));
        }
        if let Pinned::Components(parts) = &self.pinned {
            out.push_str("[run.components]\n");
            for (name, part) in parts {
                match part {
                    (n, None) => out.push_str(&format!("\"{name}\" = {n}\n")),
                    (n, Some(d)) => out.push_str(&format!("\"{name}\" = [{n}, \"{d:016x}\"]\n")),
                }
            }
        }
        out
    }
}

/// The pinned runs of a pin file, by key.
#[derive(Clone, Debug, Default)]
pub struct Pins(BTreeMap<String, Run>);

impl Pins {
    /// The committed `pins.toml` at the repository root.
    ///
    /// # Errors
    ///
    /// The file cannot be read, or [`Pins::parse`] rejects it.
    pub fn committed() -> Result<Pins, String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../pins.toml");
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Pins::parse(&src).map_err(|e| format!("pins.toml: {e}"))
    }

    /// Parses a pin file: one `[[run]]` per pinned run, with a `key`, any
    /// of the counts `runs`, `outcomes`, `violating`, `exhausted`, `plans`
    /// and `events`, and either a 16-hex-digit `digest` or a
    /// `[run.components]` table whose values are a count, or a
    /// `[count, "digest"]` pair.
    ///
    /// # Errors
    ///
    /// A [`TomlError`] at the entry's header line for a malformed entry, an
    /// entry with both or neither of `digest` and `[run.components]`, or a
    /// repeated key.
    pub fn parse(src: &str) -> Result<Pins, TomlError> {
        let doc = tomlite::parse(src)?;
        let root = doc.root();
        root.reject_unknown(&["run"])?;
        let mut pins = BTreeMap::new();
        for run in root.tables("run")? {
            let mut allowed = vec!["key", "digest", "components"];
            allowed.extend(COUNTS);
            run.reject_unknown(&allowed)?;
            let key = run.str_req("key")?.to_string();
            let run = run.with_context(format!("pin `{key}`"));
            let mut counts = Parts::new();
            for name in COUNTS {
                if run.get(name).is_some() {
                    counts.insert(name.to_string(), (run.int(name)?, None));
                }
            }
            let pinned = match (run.str_opt("digest")?, run.table("components")?) {
                (Some(d), None) => Pinned::Digest(hex(&run, d)?),
                (None, Some(table)) => {
                    let table = table.with_context(format!("pin `{key}`"));
                    let mut parts = Parts::new();
                    let values = run.get("components").and_then(tomlite::Value::as_table);
                    for (name, value) in values.into_iter().flatten() {
                        parts.insert(name.clone(), component(&table, name, value)?);
                    }
                    Pinned::Components(parts)
                }
                _ => return Err(run.error("needs a `digest` or `[run.components]`, not both")),
            };
            if pins.contains_key(&key) {
                return Err(run.error("repeated"));
            }
            pins.insert(key, Run { counts, pinned });
        }
        Ok(Pins(pins))
    }

    /// The keys that start with `prefix`, in key order.
    pub fn keys_under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.0
            .keys()
            .filter(move |k| k.starts_with(prefix))
            .map(String::as_str)
    }

    /// One run's report for [`hold`]: what moved — each count, and the
    /// digest or each component that differs (for a counted part, its
    /// count delta) — followed by the entry that would re-pin the run.
    fn check(&self, key: &str, run: &Run) -> Result<(), String> {
        let Some(pin) = self.0.get(key) else {
            return Err(format!(
                "no pin `{key}` in pins.toml; to pin it, add\n{}",
                run.entry(key)
            ));
        };
        let mut moved = diff(&pin.counts, &run.counts);
        match (&pin.pinned, &run.pinned) {
            (Pinned::Digest(was), Pinned::Digest(is)) if was != is => {
                moved.push(format!("digest {was:016x} -> {is:016x}"));
            }
            (Pinned::Components(was), Pinned::Components(is)) => moved.extend(diff(was, is)),
            (Pinned::Digest(_), Pinned::Digest(_)) => {}
            _ => moved.push("pinned by a digest, checked by components, or the reverse".into()),
        }
        if moved.is_empty() {
            return Ok(());
        }
        Err(format!(
            "pin `{key}` moved:\n  {}\nto re-pin it, replace its entry in pins.toml with\n{}",
            moved.join("\n  "),
            run.entry(key)
        ))
    }
}

/// Checks each `(key, run)` against its entry in the committed
/// `pins.toml`: the one assertion of every pin test.
///
/// # Panics
///
/// If `pins.toml` cannot be read, or, for each run that moved from its
/// pin, with a report naming what moved and the entry that would re-pin
/// it.
pub fn hold<K: AsRef<str>>(runs: impl IntoIterator<Item = (K, Run)>) {
    let pins = Pins::committed().unwrap_or_else(|e| panic!("{e}"));
    let moved: Vec<String> = runs
        .into_iter()
        .filter_map(|(key, run)| pins.check(key.as_ref(), &run).err())
        .collect();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

/// One line per part that differs between `pinned` and `got`: a count
/// change with its delta, or a digest change at an equal count; a part
/// only one side has is named as added or gone.
fn diff(pinned: &Parts, got: &Parts) -> Vec<String> {
    let keys: BTreeSet<&String> = pinned.keys().chain(got.keys()).collect();
    let mut out = Vec::new();
    for key in keys {
        match (pinned.get(key), got.get(key)) {
            (Some(was), Some(is)) if was == is => {}
            (Some(&(n0, d0)), Some(&(n1, d1))) if n0 == n1 => {
                out.push(format!(
                    "{key}: digest {} -> {} at count {n0}",
                    hx(d0),
                    hx(d1)
                ));
            }
            (Some(&(n0, _)), Some(&(n1, _))) => {
                let delta = i128::from(n1) - i128::from(n0);
                out.push(format!("{key}: {n0} -> {n1} ({delta:+})"));
            }
            (Some((n, _)), None) => out.push(format!("{key}: gone (was {n})")),
            (None, Some((n, _))) => out.push(format!("{key}: added ({n})")),
            (None, None) => {}
        }
    }
    out
}

/// A `[run.components]` value: a count, or a `[count, "digest"]` pair.
fn component(
    table: &tomlite::Reader<'_>,
    name: &str,
    value: &tomlite::Value,
) -> Result<(u64, Option<u64>), TomlError> {
    use tomlite::Value::{Array, Int, Str};
    let count =
        |n: i64| u64::try_from(n).map_err(|_| table.error(format!("`{name}`: negative count")));
    match value {
        Int(n) => Ok((count(*n)?, None)),
        Array(pair) => match pair.as_slice() {
            [Int(n), Str(d)] => Ok((count(*n)?, Some(hex(table, d)?))),
            _ => Err(table.error(format!("`{name}` must be [count, \"digest\"]"))),
        },
        _ => Err(table.error(format!("`{name}` must be a count or [count, \"digest\"]"))),
    }
}

fn hex(table: &tomlite::Reader<'_>, s: &str) -> Result<u64, TomlError> {
    if s.len() != 16 {
        return Err(table.error(format!("digest `{s}` must be 16 hex digits")));
    }
    u64::from_str_radix(s, 16).map_err(|_| table.error(format!("digest `{s}` is not hex")))
}

fn hx(d: Option<u64>) -> String {
    d.map_or_else(|| "-".to_string(), |d| format!("{d:016x}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_batch, run_scenario, ScenarioConfig, ScenarioOutcome};
    use mead::RecoveryScheme;
    use simnet::SimTime;

    fn quick(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            ..ScenarioConfig::quick(RecoveryScheme::MeadFailover, 300)
        }
    }

    /// What [`diff`] names once `change` has edited one real outcome.
    fn moved_by(change: impl FnOnce(&mut ScenarioOutcome)) -> Vec<String> {
        let mut out = run_scenario(&quick(42));
        let before = out.components().parts();
        change(&mut out);
        diff(&before, &out.components().parts())
    }

    /// Whether `moved` is the one line `key: <was> -> <is> (<delta>)`.
    fn one_step(moved: &[String], key: &str, delta: &str) -> bool {
        matches!(moved, [line] if line.starts_with(&format!("{key}: ")) && line.ends_with(delta))
    }

    #[test]
    fn the_diff_names_exactly_the_part_that_moved() {
        let moved = moved_by(|o| o.metrics.count("orb.server.requests", 1));
        assert!(
            one_step(&moved, "counter.orb.server.requests", "(+1)"),
            "{moved:?}"
        );

        let moved = moved_by(|o| {
            o.metrics
                .record_bytes("gcs.mesh", SimTime::from_millis(1), 64)
        });
        assert!(one_step(&moved, "bytes.gcs.mesh", "(+1)"), "{moved:?}");

        let moved = moved_by(|o| {
            o.finished_at = SimTime::from_nanos(o.finished_at.as_nanos() + 1);
        });
        assert!(one_step(&moved, "finished_at", "(+1)"), "{moved:?}");

        // One `spawn` event edited in place: its kind's digest moves at an
        // equal count, and nothing else does.
        let moved = moved_by(|o| {
            let spawn = o
                .trace
                .iter_mut()
                .rev()
                .find(|ev| ev.kind.name() == "spawn");
            spawn.expect("the run spawns processes").at_ns += 1;
        });
        assert!(
            matches!(moved.as_slice(), [line] if line.starts_with("trace.spawn: digest ")),
            "{moved:?}"
        );
    }

    /// An event added or lost moves its kind by its count delta, and the
    /// trace's length and order of kinds (`trace`) with it.
    #[test]
    fn the_diff_gives_a_trace_kinds_count_delta() {
        let moved = moved_by(|o| {
            let at = o.trace.iter().rposition(|ev| ev.kind.name() == "spawn");
            o.trace.remove(at.expect("the run spawns processes"));
        });
        assert!(
            matches!(moved.as_slice(), [all, spawn]
                if all.starts_with("trace: ") && all.ends_with("(-1)")
                && spawn.starts_with("trace.spawn: ") && spawn.ends_with("(-1)")),
            "{moved:?}"
        );
    }

    #[test]
    fn components_and_digest_are_identical_at_1_and_4_threads() {
        let cfgs: Vec<ScenarioConfig> = (0..4).map(quick).collect();
        let run = |threads| -> Vec<Components> {
            run_batch(&cfgs, threads)
                .iter()
                .map(ScenarioOutcome::components)
                .collect()
        };
        let (one, four) = (run(1), run(4));
        assert_eq!(one, four);
        let digests = |c: &[Components]| c.iter().map(Components::digest).collect::<Vec<_>>();
        assert_eq!(digests(&one), digests(&four));
    }
}

//! One run of one workload: either timed (tracing off, end-to-end
//! metrics) or traced (spans, counting allocator, micro-kernels,
//! per-layer metrics).

use std::path::Path;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::json::{obj, s, Value};
use crate::kernels;
use crate::span::Spans;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{nearest_rank, Quartiles};
use crate::workloads::{self, PassOut, Size, Workload};

/// What to run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long to measure: it fixes the number of passes and the length
    /// of a kernel sample ([`workloads::passes`]), not a deadline.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of timed (end-to-end).
    pub traced: bool,
    /// Input size.
    pub size: Size,
}

/// One metric as reported.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// Everything a run found out.
#[derive(Clone, Debug)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// `"timed"` or `"traced"`.
    pub mode: &'static str,
    /// Input size.
    pub size: Size,
    /// The outputs were correct: no failed operation, no problem, and
    /// every pass produced the same digests.
    pub correct: bool,
    /// Operations attempted over the measured passes.
    pub attempted: u64,
    /// Operations failed over the measured passes.
    pub failed: u64,
    /// The metrics of this mode, in `spec` order.
    pub metrics: Vec<Metric>,
    /// The last pass: its op and event counts and the per-layer counts it
    /// read (whichever the mode, so the pins can be checked on either).
    pub pass: PassOut,
    /// `ns_per_op` over the timed passes (timed runs only).
    pub spread: Option<Quartiles>,
    /// `ns_per_op` of every timed pass, in run order (timed runs only).
    pub samples: Vec<f64>,
    /// The program's outcome digests.
    pub digests: Vec<(String, u64)>,
    /// The bench-side fold over client-visible results.
    pub client_fold: u64,
    /// What was wrong, if anything.
    pub problems: Vec<String>,
    /// The Chrome trace of the traced pass (traced runs only).
    pub trace: Option<Value>,
}

impl Report {
    /// The value of metric `name`, if this report has it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn metrics_value(&self) -> Value {
        obj(self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    obj(vec![("value", Value::Num(m.value)), ("unit", s(m.unit))]),
                )
            })
            .collect())
    }

    /// The one-line result the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_value()),
        ])
        .to_json()
    }

    /// The full report: the result line's content plus host, spread,
    /// digests and problems. This is what `--compare` reads back.
    pub fn to_value(&self, host: &Value) -> Value {
        let spread = self.spread.map_or(Value::Null, |q| {
            obj(vec![
                ("metric", s("ns_per_op")),
                ("passes", Value::Num(q.n as f64)),
                ("p25", Value::Num(q.p25)),
                ("median", Value::Num(q.p50)),
                ("p75", Value::Num(q.p75)),
                ("iqr_share_of_median", Value::Num(q.rel_iqr())),
            ])
        });
        let digests = self
            .digests
            .iter()
            .map(|(label, digest)| (label.as_str(), s(format!("{digest:#018x}"))))
            .collect();
        obj(vec![
            ("workload", s(self.workload.as_str())),
            ("seed", Value::Num(self.seed as f64)),
            (
                "seeded",
                Value::Bool(!matches!(
                    self.workload.as_str(),
                    "sweep" | "explore" | "detlint"
                )),
            ),
            ("mode", s(self.mode)),
            ("host", host.clone()),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_value()),
            (
                "pass",
                obj(vec![
                    ("ops", Value::Num(self.pass.ops as f64)),
                    ("events", Value::Num(self.pass.events as f64)),
                ]),
            ),
            ("spread", spread),
            (
                "ns_per_op_by_pass",
                Value::Arr(self.samples.iter().map(|&v| Value::Num(v)).collect()),
            ),
            ("digests", obj(digests)),
            ("client_fold", s(format!("{:#018x}", self.client_fold))),
            (
                "pins",
                obj(crate::pins::status(self)
                    .into_iter()
                    .map(|(pin, holds)| (pin, Value::Bool(holds)))
                    .collect()),
            ),
            (
                "problems",
                Value::Arr(self.problems.iter().map(|p| s(p.as_str())).collect()),
            ),
        ])
    }
}

/// Everything before the first pass: confirm the checkout, then build
/// the workload's inputs from the seed.
fn set_up(args: &RunArgs, root: &Path) -> Result<Box<dyn Workload>, String> {
    let root = crate::repo_root(root)?;
    workloads::setup(&args.workload, args.seed, args.size, &root)
}

/// Times set-up in batches: a lone config constructor is below the
/// clock's resolution, so a sample is about [`SetupClock::BATCH`] of
/// back-to-back set-ups, divided by their number. A fixed number of
/// samples is taken before the first pass and again after every pass —
/// interference on a shared host lasts seconds, and samples taken all at
/// once would all land inside it or all outside it.
struct SetupClock {
    batch: u32,
    samples: Vec<f64>,
}

impl SetupClock {
    const BATCH: Duration = Duration::from_millis(1);
    /// Samples before the first pass, the cold one included.
    const FIRST_SAMPLES: usize = 30;
    /// Samples after each pass.
    const LATER_SAMPLES: usize = 3;

    /// The first, cold set-up; it sizes the batches and is a sample.
    fn start(args: &RunArgs, root: &Path) -> Result<(Box<dyn Workload>, SetupClock), String> {
        let started = Instant::now();
        let workload = set_up(args, root)?;
        let cold = started.elapsed().max(Duration::from_nanos(1));
        let mut clock = SetupClock {
            batch: (Self::BATCH.as_nanos() / cold.as_nanos()).clamp(1, 10_000) as u32,
            samples: vec![cold.as_secs_f64()],
        };
        while args.size == Size::Full && clock.samples.len() < Self::FIRST_SAMPLES {
            clock.sample(args, root)?;
        }
        Ok((workload, clock))
    }

    fn sample(&mut self, args: &RunArgs, root: &Path) -> Result<(), String> {
        let started = Instant::now();
        for _ in 0..self.batch {
            drop(set_up(args, root)?);
        }
        self.samples
            .push(started.elapsed().as_secs_f64() / f64::from(self.batch));
        Ok(())
    }

    fn after_pass(&mut self, args: &RunArgs, root: &Path) -> Result<(), String> {
        if args.size == Size::Full {
            for _ in 0..Self::LATER_SAMPLES {
                self.sample(args, root)?;
            }
        }
        Ok(())
    }

    fn fastest(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Folds passes into the run's verdict: operations are counted, problems
/// collected, and digests must repeat exactly from pass to pass.
#[derive(Default)]
struct Verdict {
    first: Option<(Vec<(String, u64)>, u64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Verdict {
    fn take(&mut self, pass: &PassOut) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        let identity = (pass.digests.clone(), pass.client_fold);
        let mismatch = *self.first.get_or_insert_with(|| identity.clone()) != identity;
        let problems = pass
            .problems
            .iter()
            .cloned()
            .chain(mismatch.then(|| DIGESTS_DIFFER.to_string()));
        for problem in problems {
            if !self.problems.contains(&problem) {
                self.problems.push(problem);
            }
        }
    }

    /// Operations failed; all of them if the passes disagreed, because
    /// such a run has no result at all.
    fn failed(&self) -> u64 {
        if self.problems.iter().any(|p| p == DIGESTS_DIFFER) {
            self.attempted
        } else {
            self.failed
        }
    }

    fn correct(&self) -> bool {
        self.failed() == 0 && self.problems.is_empty()
    }

    fn identity(&self) -> (Vec<(String, u64)>, u64) {
        self.first.clone().unwrap_or_default()
    }
}

const DIGESTS_DIFFER: &str = "digests differ between passes of one run";

const MIB: f64 = 1024.0 * 1024.0;

/// The host time of a pass on a quiet machine: every unit at the fastest
/// any pass ran it, summed. Interference only ever adds time, the work of
/// a unit is identical from pass to pass, and a burst of interference
/// rarely covers the same unit in every pass — so this is steadier than
/// any statistic of whole passes, most of all when passes are long and
/// few. With one unit per pass it is the fastest pass.
fn quiet_pass_ns(passes: &[Vec<u64>]) -> f64 {
    let units = passes.first().map_or(0, Vec::len);
    if passes.iter().any(|pass| pass.len() != units) {
        // Cannot happen for a deterministic program (the digests would
        // differ too); fall back to whole passes.
        return passes
            .iter()
            .map(|pass| pass.iter().sum::<u64>())
            .min()
            .unwrap_or(0) as f64;
    }
    (0..units)
        .map(|u| passes.iter().map(|pass| pass[u]).min().unwrap_or(0))
        .sum::<u64>() as f64
}

/// A timed run: set-up (sampled before the passes and between them),
/// the passes `seconds` stands for with tracing off, then one more pass
/// under the counting allocator for the heap figure.
fn timed(args: &RunArgs, root: &Path) -> Result<Report, String> {
    let (workload, mut setup) = SetupClock::start(args, root)?;
    let mut spans = Spans::off();
    let mut verdict = Verdict::default();
    let mut units = Vec::new();
    let mut ns_per_op = Vec::new();
    for _ in 0..workloads::passes(&args.workload, args.seconds) {
        let pass = workload.pass(&mut spans);
        verdict.take(&pass);
        ns_per_op.push(pass.wall().as_nanos() as f64 / pass.ops.max(1) as f64);
        units.push(pass.units);
        setup.after_pass(args, root)?;
    }
    alloc::start();
    let counted = workload.pass(&mut spans);
    let heap = alloc::stop();
    verdict.take(&counted);

    let values = [
        quiet_pass_ns(&units) / counted.ops.max(1) as f64,
        setup.fastest(),
        heap.peak_bytes as f64 / MIB,
    ];
    let (digests, client_fold) = verdict.identity();
    Ok(Report {
        workload: args.workload.clone(),
        seed: args.seed,
        mode: "timed",
        size: args.size,
        correct: verdict.correct(),
        attempted: verdict.attempted,
        failed: verdict.failed(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Metric {
                name: m.name,
                unit: m.unit,
                value,
            })
            .collect(),
        pass: counted,
        spread: Some(Quartiles::of(&ns_per_op)),
        samples: ns_per_op,
        digests,
        client_fold,
        problems: verdict.problems,
        trace: None,
    })
}

/// Span names that are the program running, as against digesting or
/// reporting.
const RUN_SPANS: [&str; 5] = [
    "run_scenario",
    "run_fleet",
    "run_chaos_plan",
    "explore",
    "lint_files",
];

/// Holds what a traced run produced to the declared per-layer metrics:
/// every name declared for `workload` must have been produced, nothing
/// may be produced that is not declared for it, and a name declared for
/// other workloads only is not applicable here and reported as 0.
fn per_layer(
    workload: &str,
    found: &[(&'static str, f64)],
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    for (name, _) in found {
        if !PER_LAYER
            .iter()
            .any(|m| m.name == *name && m.on.contains(&workload))
        {
            problems.push(format!(
                "{name} is produced but not declared for {workload}"
            ));
        }
    }
    PER_LAYER
        .iter()
        .map(|m| {
            let produced = found.iter().find(|(name, _)| *name == m.name);
            if produced.is_none() && m.on.contains(&workload) {
                problems.push(format!("{} is declared but was not produced", m.name));
            }
            Metric {
                name: m.name,
                unit: m.unit,
                value: produced.map_or(0.0, |(_, value)| *value),
            }
        })
        .collect()
}

/// A traced run: pairs of a plain and a traced pass, one for every eight
/// passes of a timed run (their ratio is the tracing overhead), then the
/// micro-kernels, with three quarters of `seconds` to share.
fn traced(args: &RunArgs, root: &Path) -> Result<Report, String> {
    let workload = workloads::setup(&args.workload, args.seed, args.size, root)?;
    let mut off = Spans::off();
    // The sweep records a span per plan (510 in all); nothing else comes close.
    let mut spans = Spans::on(4096);
    let mut verdict = Verdict::default();
    let mut plain_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut last = None;
    for _ in 0..(workloads::passes(&args.workload, args.seconds) / 8).max(1) {
        let plain = workload.pass(&mut off);
        verdict.take(&plain);
        plain_ns.push(plain.wall().as_nanos() as f64);
        spans.clear();
        alloc::start();
        let pass = workload.pass(&mut spans);
        let heap = alloc::stop();
        verdict.take(&pass);
        traced_ns.push(pass.wall().as_nanos() as f64);
        last = Some((pass, heap));
    }
    let (pass, heap) = last.expect("at least one pair of passes");

    let wall_ns = pass.wall().as_nanos() as f64;
    let share = |ns: u64| ns as f64 / wall_ns * 100.0;
    let per_op = |total: u64| total as f64 / pass.ops.max(1) as f64;
    let fastest = |ns: &[f64]| ns.iter().copied().fold(f64::INFINITY, f64::min);
    let mut found: Vec<(&'static str, f64)> = vec![
        (
            "experiments.run_share",
            share(RUN_SPANS.iter().map(|name| spans.self_ns_of(name)).sum()),
        ),
        (
            "experiments.digest_share",
            share(spans.self_ns_of("digest")),
        ),
        (
            "experiments.report_share",
            share(spans.self_ns_of("report") + spans.self_ns_of("trace_jsonl")),
        ),
        ("heap.allocs_per_op", per_op(heap.allocs)),
        ("heap.bytes_per_op", per_op(heap.bytes)),
        (
            "bench.trace_overhead_pct",
            (fastest(&traced_ns) / fastest(&plain_ns) - 1.0) * 100.0,
        ),
        (
            "bench.fail_share",
            pass.failed as f64 / pass.attempted.max(1) as f64 * 100.0,
        ),
        ("bench.ops_per_pass", pass.ops as f64),
    ];
    if pass.events > 0 {
        found.push(("simnet.events_per_pass", pass.events as f64));
    }
    if pass.kernel_wall > Duration::ZERO {
        found.push((
            "simnet.kernel_share",
            pass.kernel_wall.as_nanos() as f64 / wall_ns * 100.0,
        ));
    }
    let plans_ms: Vec<f64> = spans
        .durations_ns_of("run_chaos_plan")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    if !plans_ms.is_empty() {
        // p98 is the highest percentile with ten of the 508 plans beyond it.
        found.push(("experiments.plan_ms_p50", nearest_rank(&plans_ms, 50, 100)));
        found.push(("experiments.plan_ms_p98", nearest_rank(&plans_ms, 98, 100)));
    }
    found.extend(pass.counts.iter().copied());
    let kernel_budget = if args.size == Size::Check {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(args.seconds * 0.75)
    };
    let kernels = kernels::run_all(root, kernel_budget, args.size)?;
    for (name, value) in &kernels {
        if !(value.is_finite() && *value > 0.0) {
            verdict
                .problems
                .push(format!("kernel {name} measured {value}"));
        }
    }
    found.extend(kernels);
    let metrics = per_layer(&args.workload, &found, &mut verdict.problems);

    let (digests, client_fold) = verdict.identity();
    Ok(Report {
        workload: args.workload.clone(),
        seed: args.seed,
        mode: "traced",
        size: args.size,
        correct: verdict.correct(),
        attempted: verdict.attempted,
        failed: verdict.failed(),
        metrics,
        pass,
        spread: None,
        samples: Vec::new(),
        digests,
        client_fold,
        problems: verdict.problems,
        trace: Some(spans.to_chrome_trace(&args.workload)),
    })
}

/// Runs one workload in the mode `args` asks for.
///
/// # Errors
///
/// An unknown workload, or inputs missing under `root`.
pub fn run(args: &RunArgs, root: &Path) -> Result<Report, String> {
    if args.traced {
        traced(args, root)
    } else {
        timed(args, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn produced_on(workload: &str) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .filter(|m| m.on.contains(&workload))
            .map(|m| (m.name, 1.0))
            .collect()
    }

    #[test]
    fn per_layer_accepts_exactly_what_is_declared() {
        let mut problems = Vec::new();
        let metrics = per_layer("explore", &produced_on("explore"), &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(metrics.len(), PER_LAYER.len());
        // Declared for `detlint` only: not applicable, printed as 0.
        let files = metrics.iter().find(|m| m.name == "lint.files");
        assert_eq!(files.map(|m| m.value), Some(0.0));
    }

    #[test]
    fn per_layer_names_what_is_missing_misplaced_or_unknown() {
        let mut found = produced_on("explore");
        found.retain(|(name, _)| *name != "explore.runs");
        found.push(("lint.files", 3.0));
        found.push(("explore.rnus", 318.0));
        let mut problems = Vec::new();
        per_layer("explore", &found, &mut problems);
        assert_eq!(
            problems,
            [
                "lint.files is produced but not declared for explore",
                "explore.rnus is produced but not declared for explore",
                "explore.runs is declared but was not produced",
            ]
        );
    }

    #[test]
    fn quiet_pass_takes_each_unit_at_its_fastest() {
        assert_eq!(quiet_pass_ns(&[vec![5, 9], vec![7, 4], vec![6, 6]]), 9.0);
        assert_eq!(quiet_pass_ns(&[vec![5], vec![3]]), 3.0);
    }
}

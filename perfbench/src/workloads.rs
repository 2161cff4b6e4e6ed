//! The three workloads: one process, one client thread, closed loop (each
//! batch call returns before the next is sent), sessions at `threads =
//! nproc`. Each workload runs whole schedule cycles until its time is up,
//! so every shape is sampled equally often, and checks a seeded sample of
//! its answers against an independent oracle after the timed loop.

use crate::gen::{Draw, Shape, Update, UpdateStream};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use treelineage::ProbabilityEvaluator;
use treelineage_engine::{
    DecisionTier, EngineConfig, EngineError, EvalSession, InstanceId, ProbabilityRequest, QueryId,
    Span, SpanEvent, Telemetry, ThresholdRequest,
};
use treelineage_instance::{Element, Instance, ProbabilityValuation};
use treelineage_num::{ErrorInterval, Rational};
use treelineage_query::UnionOfConjunctiveQueries;

/// What one timed operation was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `batch_probability` (serve_warm).
    Exact,
    /// `batch_probability_f64` (serve_warm).
    Float,
    /// `batch_threshold` (serve_warm).
    Threshold,
    /// `register_instance` plus the first f64 answer (ingest_cold).
    Cold,
    /// `retract_fact` or `insert_fact` plus an f64 answer (update_mix).
    Structural,
    /// `set_probability` plus an f64 answer (update_mix).
    Reweight,
}

impl Kind {
    /// The kind's name in reports and span labels.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Exact => "exact",
            Kind::Float => "float",
            Kind::Threshold => "threshold",
            Kind::Cold => "cold",
            Kind::Structural => "update",
            Kind::Reweight => "reweight",
        }
    }
}

/// One timed operation. Requests of one batch share the batch's sample.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub kind: Kind,
    /// Index of the operation's shape in [`Measured::shapes`].
    pub shape: usize,
    /// Latency of the whole operation.
    pub ms: f64,
    /// The first call of the operation alone (register or update call).
    pub call_ms: f64,
    /// Requests the operation carried.
    pub requests: usize,
    /// Whether every request of the operation succeeded; failed operations
    /// count in `failed` and stay out of the latency figures.
    pub ok: bool,
}

/// Everything a workload's timed loop produced.
pub struct Measured {
    pub shapes: Vec<Shape>,
    pub samples: Vec<Sample>,
    pub elapsed_s: f64,
    /// Seconds of each set-up; `setup_s` is their median.
    pub setup_times: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Session counters accumulated over the timed loop only.
    pub stats: StatsDelta,
    /// Completed operations per second of each whole schedule cycle:
    /// `ops_per_s` is their median, so a burst of load from elsewhere on
    /// the machine moves a few cycles rather than the whole figure.
    pub cycle_rates: Vec<f64>,
    /// Report-only figures particular to the workload.
    pub extra: Vec<crate::Metric>,
}

/// The [`treelineage_engine::SessionStats`] counters the per-layer ratios
/// read.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatsDelta {
    pub lineage_hits: usize,
    pub lineage_misses: usize,
    pub float_decisions: usize,
    pub exact_fallbacks: usize,
    pub fragments_reused: usize,
    pub fragments_recompiled: usize,
    pub machines_built: usize,
}

impl StatsDelta {
    /// The session's counters now.
    pub fn of(session: &EvalSession) -> Self {
        let s = session.stats();
        StatsDelta {
            lineage_hits: s.lineage_hits,
            lineage_misses: s.lineage_misses,
            float_decisions: s.float_decisions,
            exact_fallbacks: s.exact_fallbacks,
            fragments_reused: s.fragments_reused,
            fragments_recompiled: s.fragments_recompiled,
            machines_built: s.machines_built,
        }
    }

    fn zip(self, other: StatsDelta, f: fn(usize, usize) -> usize) -> Self {
        StatsDelta {
            lineage_hits: f(self.lineage_hits, other.lineage_hits),
            lineage_misses: f(self.lineage_misses, other.lineage_misses),
            float_decisions: f(self.float_decisions, other.float_decisions),
            exact_fallbacks: f(self.exact_fallbacks, other.exact_fallbacks),
            fragments_reused: f(self.fragments_reused, other.fragments_reused),
            fragments_recompiled: f(self.fragments_recompiled, other.fragments_recompiled),
            machines_built: f(self.machines_built, other.machines_built),
        }
    }

    fn since(self, before: StatsDelta) -> Self {
        self.zip(before, |a, b| a - b)
    }

    /// The counters of both added up.
    pub fn plus(self, other: StatsDelta) -> Self {
        self.zip(other, |a, b| a + b)
    }
}

/// Run parameters shared by every workload.
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    /// Set-ups per run; the median is reported.
    pub setups: usize,
    /// The benchmark's own span recorder: off for the end-to-end run, on
    /// for the traced run.
    pub rec: Recorder,
}

/// Spans the benchmark records around its own calls into the library,
/// through the library's public `Telemetry` span API. Each operation is a
/// root span whose trace id serves as the request id. Off, every span is
/// an inert guard that reads no clock.
pub struct Recorder {
    tel: Telemetry,
    spans: RefCell<Vec<SpanEvent>>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder {
            tel: Telemetry::disabled(),
            spans: RefCell::default(),
        }
    }

    /// A recorder keeping every span in memory until [`Recorder::take`].
    pub fn on() -> Self {
        Recorder {
            tel: Telemetry::enabled(),
            spans: RefCell::default(),
        }
    }

    /// A span under the innermost open one.
    pub fn span(&self, name: &'static str) -> Span {
        self.tel.span(name)
    }

    /// The root span of a new request. The registry's event ring is
    /// bounded, so finished spans move into this recorder first.
    pub fn root(&self, name: &'static str, kind: &'static str) -> Span {
        self.collect();
        let mut span = self.tel.span_root(name);
        span.label("kind", kind);
        span
    }

    fn collect(&self) {
        if self.tel.is_enabled() {
            self.spans.borrow_mut().extend(self.tel.drain_events());
        }
    }

    /// Every span recorded so far.
    pub fn take(&self) -> Vec<SpanEvent> {
        self.collect();
        self.spans.take()
    }
}

/// A wrong answer: the run fails without printing a result.
#[derive(Debug)]
pub struct Mismatch(pub String);

/// The treelike instance `serve_warm` and `update_mix` keep warm. It is
/// the same for every workload seed: its exact cost is one of the five
/// latency clusters the medians are taken over, so an instance drawn per
/// seed would move the medians from seed to seed. Seeds vary the
/// valuations, thresholds and updates instead.
const WARM_TREELIKE: Shape = Shape::Treelike { n: 60, seed: 1 };

/// The pairs `serve_warm` keeps warm: small enough that the exact pass
/// answers within the run, and the three chain sizes give the exact-eval
/// scaling exponent.
pub fn serve_shapes() -> Vec<Shape> {
    vec![
        Shape::Chain(25),
        Shape::Chain(50),
        Shape::Chain(100),
        Shape::Grid(4),
        WARM_TREELIKE,
    ]
}

/// Runs `op` until it returns or panics; a panic counts as a failure.
fn guarded<T>(op: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(op)).ok()
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Set-up times of one run. The first set-up builds the state the timed
/// loop runs on; the others are built and dropped between cycles at even
/// intervals of the loop, outside every timed operation. Their median then
/// spans the drift of the machine's speed over the run instead of one
/// moment of it: eleven set-ups back to back took 7 ms in one run and
/// 11 ms in the next.
struct Setups {
    times: Vec<f64>,
    wanted: usize,
    every_s: f64,
}

impl Setups {
    fn new(p: &Params) -> Self {
        Setups {
            times: Vec::new(),
            wanted: p.setups,
            every_s: p.seconds / p.setups.max(1) as f64,
        }
    }

    /// Runs `build` and records how long it took.
    fn time<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let built = build();
        self.times.push(t.elapsed().as_secs_f64());
        built
    }

    /// Builds and drops one more set-up if the loop, `elapsed_s` into its
    /// run, is due for one.
    fn between_cycles<T>(&mut self, elapsed_s: f64, build: impl FnOnce() -> T) {
        if self.times.len() < self.wanted && elapsed_s >= self.times.len() as f64 * self.every_s {
            drop(self.time(build));
        }
    }
}

/// The exact answer of the match-based oracle (`ProbabilityEvaluator` on
/// its default shared decision-diagram backend, which shares no code with
/// the automaton pipeline the session serves from).
fn oracle(
    instance: &Instance,
    valuation: &ProbabilityValuation,
    query: &UnionOfConjunctiveQueries,
) -> Result<Rational, Mismatch> {
    ProbabilityEvaluator::new(instance, valuation)
        .query_probability(query)
        .map_err(|e| Mismatch(format!("oracle failed: {e}")))
}

/// Longest chain the match-based oracle checks: it takes about 10 s on
/// chain 800, so longer chains are checked by [`chain_oracle`].
const ORACLE_MAX_CHAIN: usize = 200;

/// A closed form for `R(x), S(x, y), T(y)` on a chain, independent of the
/// library's lineage code: the candidate matches `R(i), S(i, i+1), T(i+1)`
/// use pairwise disjoint facts, so they are independent events and
/// `P = 1 − ∏ (1 − p(R(i))·p(S(i, i+1))·p(T(i+1)))`.
fn chain_oracle(instance: &Instance, valuation: &ProbabilityValuation) -> Rational {
    let sig = instance.signature();
    let rel = |name| sig.relation_by_name(name).expect("a chain signature");
    let (r, s, t) = (rel("R"), rel("S"), rel("T"));
    let p = |relation, args: &[u64]| {
        let args: Vec<Element> = args.iter().map(|&a| Element(a)).collect();
        instance
            .fact_id(relation, &args)
            .map(|id| valuation.probability(id).clone())
    };
    let mut none = Rational::one();
    for i in 0..instance.domain_size() as u64 {
        if let (Some(a), Some(b), Some(c)) = (p(r, &[i]), p(s, &[i, i + 1]), p(t, &[i + 1])) {
            none *= &(&(&a * &b) * &c).complement();
        }
    }
    none.complement()
}

fn check_interval(what: &str, interval: &ErrorInterval, exact: &Rational) -> Result<(), Mismatch> {
    if interval.contains(exact) {
        Ok(())
    } else {
        Err(Mismatch(format!(
            "{what}: f64 interval {interval:?} misses the exact answer {exact}"
        )))
    }
}

/// A sampled answer, checked after the timed loop.
enum Answer {
    Exact(Rational),
    Float(ErrorInterval),
    Threshold {
        threshold: Rational,
        above: bool,
        tier: DecisionTier,
    },
}

/// Every `SAMPLE_EVERY`-th operation (from a seeded offset) has its answer
/// checked, at most `SAMPLE_CAP` per run, so checking stays a small share
/// of the run.
const SAMPLE_EVERY: usize = 23;
const SAMPLE_CAP: usize = 12;

struct Sampler {
    next: usize,
    count: usize,
}

impl Sampler {
    fn new(seed: u64) -> Self {
        Sampler {
            next: Draw::new(seed, 0x5a3b1e).index(SAMPLE_EVERY),
            count: 0,
        }
    }

    /// Whether operation number `op` is sampled (numbers only grow).
    fn take(&mut self, op: usize) -> bool {
        if op >= self.next && self.count < SAMPLE_CAP {
            self.next += SAMPLE_EVERY;
            self.count += 1;
            true
        } else {
            false
        }
    }
}

struct Registered {
    session: EvalSession,
    queries: Vec<QueryId>,
    instances: Vec<InstanceId>,
}

fn register(config: EngineConfig, shapes: &[Shape]) -> Registered {
    let mut session = EvalSession::new(config);
    let mut queries = Vec::new();
    let mut instances = Vec::new();
    for shape in shapes {
        queries.push(session.register_query(shape.query()));
        instances.push(session.register_instance(shape.instance()));
    }
    Registered {
        session,
        queries,
        instances,
    }
}

/// Counts failed requests of a batch.
fn failures<T>(results: &[Result<T, EngineError>]) -> usize {
    results.iter().filter(|r| r.is_err()).count()
}

/// `serve_warm`: warm reads on a float-first session.
pub fn serve_warm(p: &Params) -> Result<Measured, Mismatch> {
    let shapes = serve_shapes();
    let instances: Vec<Instance> = shapes.iter().map(Shape::instance).collect();
    let queries: Vec<_> = shapes.iter().map(Shape::query).collect();
    let config = EngineConfig {
        float_first: true,
        ..EngineConfig::with_threads(p.threads)
    };
    let mut warm_draw = Draw::new(p.seed, 0x3a73);
    let mut build = || {
        let reg = register(config.clone(), &shapes);
        // One answer per pair compiles its lineage: the timed loop starts
        // with every cache layer filled.
        for (k, inst) in instances.iter().enumerate() {
            reg.session.batch_probability_f64(&[ProbabilityRequest {
                query: reg.queries[k],
                instance: reg.instances[k],
                valuation: warm_draw.valuation(inst),
            }]);
        }
        reg
    };
    let mut setups = Setups::new(p);
    let reg = setups.time(&mut build);
    let session = &reg.session;
    let before = StatsDelta::of(session);

    let mut draw = Draw::new(p.seed, 0x5e7a);
    let mut sampler = Sampler::new(p.seed);
    let mut checks = Vec::new();
    let mut samples = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut cycle_rates = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < p.seconds {
        let (cycle_start, done_before) = (Instant::now(), attempted - failed);
        for (k, inst) in instances.iter().enumerate() {
            for kind in [Kind::Exact, Kind::Float, Kind::Threshold, Kind::Float] {
                let requests: Vec<ProbabilityRequest> = (0..p.threads)
                    .map(|_| ProbabilityRequest {
                        query: reg.queries[k],
                        instance: reg.instances[k],
                        valuation: draw.valuation(inst),
                    })
                    .collect();
                let thresholds: Vec<ThresholdRequest> = match kind {
                    Kind::Threshold => requests
                        .iter()
                        .map(|r| ThresholdRequest {
                            query: r.query,
                            instance: r.instance,
                            valuation: r.valuation.clone(),
                            threshold: draw.threshold(),
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                let _op = op_span(&p.rec, kind);
                let t = Instant::now();
                let answers: Option<Vec<Result<Answer, EngineError>>> = guarded(|| match kind {
                    Kind::Exact => {
                        let _s = p.rec.span("engine.batch_probability");
                        session
                            .batch_probability(&requests)
                            .into_iter()
                            .map(|r| r.map(Answer::Exact))
                            .collect()
                    }
                    Kind::Float => {
                        let _s = p.rec.span("engine.batch_probability_f64");
                        session
                            .batch_probability_f64(&requests)
                            .into_iter()
                            .map(|r| r.map(|(_, interval)| Answer::Float(interval)))
                            .collect()
                    }
                    _ => {
                        let _s = p.rec.span("engine.batch_threshold");
                        session
                            .batch_threshold(&thresholds)
                            .into_iter()
                            .zip(&thresholds)
                            .map(|(r, t)| {
                                r.map(|d| Answer::Threshold {
                                    threshold: t.threshold.clone(),
                                    above: d.above,
                                    tier: d.tier,
                                })
                            })
                            .collect()
                    }
                });
                let ms = ms_since(t);
                drop(_op);
                attempted += requests.len();
                let batch_failed = answers.as_ref().map_or(requests.len(), |a| failures(a));
                failed += batch_failed;
                samples.push(Sample {
                    kind,
                    shape: k,
                    ms,
                    call_ms: ms,
                    requests: requests.len(),
                    ok: batch_failed == 0,
                });
                let Some(answers) = answers else {
                    continue;
                };
                let op = samples.len() - 1;
                if sampler.take(op) {
                    if let Some(Ok(answer)) = answers.into_iter().next() {
                        checks.push((k, requests[0].valuation.clone(), answer));
                    }
                }
            }
        }
        cycle_rates.push(cycle_rate(attempted - failed - done_before, cycle_start));
        setups.between_cycles(start.elapsed().as_secs_f64(), &mut build);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let stats = StatsDelta::of(session).since(before);

    for (k, valuation, answer) in &checks {
        let exact = oracle(&instances[*k], valuation, &queries[*k])?;
        let what = shapes[*k].label();
        match answer {
            Answer::Exact(p) if *p != exact => {
                return Err(Mismatch(format!(
                    "{what}: exact answer {p} differs from the oracle's {exact}"
                )))
            }
            Answer::Float(interval) => check_interval(&what, interval, &exact)?,
            Answer::Threshold {
                threshold,
                above,
                tier,
            } if *tier != DecisionTier::MonteCarlo && *above != (exact > *threshold) => {
                return Err(Mismatch(format!(
                    "{what}: threshold {threshold} decided above={above} ({tier:?}) against exact {exact}"
                )))
            }
            _ => {}
        }
    }
    Ok(Measured {
        shapes,
        samples,
        elapsed_s,
        setup_times: setups.times,
        attempted,
        failed,
        stats,
        cycle_rates,
        extra: Vec::new(),
    })
}

/// Completed operations per second of the cycle that started at `start`.
fn cycle_rate(completed: usize, start: Instant) -> f64 {
    completed as f64 / start.elapsed().as_secs_f64()
}

/// The cold ladder: the chain sizes give the compile scaling exponent; the
/// grids have wide alphabets, where materializing the automaton dominates;
/// treelike instances stay at n ≤ 60. The treelike instance's latency
/// straddles chain 200's; of the other six shapes three are faster than
/// chain 200 and three slower, so the median of whole cycles falls inside
/// chain 200's samples whichever side the treelike instance lands on.
pub fn cold_cycle(draw: &mut Draw) -> Vec<Shape> {
    let mut shapes: Vec<Shape> = [50, 100, 200, 400, 800].map(Shape::Chain).to_vec();
    shapes.extend([Shape::Grid(4), Shape::Grid(5)]);
    shapes.push(Shape::Treelike {
        n: 40 + draw.index(21),
        seed: draw.seed(),
    });
    shapes
}

/// State budget of the `ingest_cold` sessions and of the traced replay.
/// About 1 in 200 treelike instances with n ≤ 60 needs more than the
/// default 4096 states on its own and failed with `StateBudget`; none of
/// 1500 drawn needed more than this. The cap allocates nothing, so inputs
/// within the default budget compile exactly as before. The default-budget
/// failure mode stays in the report through [`long_session_failures`].
pub const COLD_STATE_BUDGET: usize = 16384;

/// `ingest_cold`: every operation registers a never-seen instance and
/// answers one f64 request on it. A session has no call that drops an
/// instance, so each ladder cycle ingests into a fresh session (memory stays
/// bounded, whatever the run length); before its first timed operation the
/// session compiles every query machine the ladder needs on tiny instances,
/// untimed, so timed operations hit the machine cache and miss every
/// per-instance cache.
pub fn ingest_cold(p: &Params) -> Result<Measured, Mismatch> {
    let config = EngineConfig {
        state_budget: COLD_STATE_BUDGET,
        ..EngineConfig::with_threads(p.threads)
    };
    let warmed = || {
        let mut session = EvalSession::new(config.clone());
        warm_machines(&mut session);
        session
    };
    // Every cycle's fresh session is a set-up of its own.
    let mut setups = Setups::new(p);
    let mut session = Some(setups.time(warmed));

    let mut draw = Draw::new(p.seed, 0x1a9e);
    let mut sampler = Sampler::new(p.seed);
    let mut checks = Vec::new();
    let mut shapes = Vec::new();
    let mut samples = Vec::new();
    let mut stats = StatsDelta::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut cycle_rates = Vec::new();
    let mut elapsed_s = 0.0;
    while elapsed_s < p.seconds {
        let done_before = attempted - failed;
        let mut session = session.take().unwrap_or_else(|| setups.time(warmed));
        let before = StatsDelta::of(&session);
        let cycle_start = Instant::now();
        for shape in cold_cycle(&mut draw) {
            let query = shape.query();
            let instance = shape.instance();
            let valuation = draw.valuation(&instance);
            let kept = sampler
                .take(samples.len())
                .then(|| (instance.clone(), valuation.clone(), query.clone()));
            let qid = session.register_query(query);
            let op = op_span(&p.rec, Kind::Cold);
            let t = Instant::now();
            let result = guarded(|| {
                let iid = {
                    let _s = p.rec.span("engine.register_instance");
                    session.register_instance(instance)
                };
                let call_ms = ms_since(t);
                let _s = p.rec.span("engine.batch_probability_f64");
                let answer = session.batch_probability_f64(&[ProbabilityRequest {
                    query: qid,
                    instance: iid,
                    valuation,
                }]);
                (call_ms, answer)
            });
            let ms = ms_since(t);
            drop(op);
            attempted += 1;
            shapes.push(shape);
            let (call_ms, answer) = match result {
                Some((call_ms, mut answer)) => (call_ms, answer.pop()),
                None => (ms, None),
            };
            samples.push(Sample {
                kind: Kind::Cold,
                shape: shapes.len() - 1,
                ms,
                call_ms,
                requests: 1,
                ok: matches!(answer, Some(Ok(_))),
            });
            match (answer, kept) {
                (Some(Ok((_, interval))), Some(kept)) => checks.push((shape, kept, interval)),
                (Some(Ok(_)), None) => {}
                _ => failed += 1,
            }
        }
        elapsed_s += cycle_start.elapsed().as_secs_f64();
        cycle_rates.push(cycle_rate(attempted - failed - done_before, cycle_start));
        stats = stats.plus(StatsDelta::of(&session).since(before));
    }

    for (shape, (instance, valuation, query), interval) in &checks {
        let exact = match shape {
            Shape::Chain(n) if *n > ORACLE_MAX_CHAIN => chain_oracle(instance, valuation),
            _ => oracle(instance, valuation, query)?,
        };
        check_interval(&shape.label(), interval, &exact)?;
    }
    let treelike: Vec<Shape> = shapes
        .iter()
        .filter(|s| matches!(s, Shape::Treelike { .. }))
        .take(LONG_SESSION_INSTANCES)
        .copied()
        .collect();
    let extra = vec![crate::Metric::new(
        "long_session_failures",
        long_session_failures(&EngineConfig::with_threads(p.threads), &treelike) as f64,
        "count",
    )
    .counted(
        treelike.len(),
        "treelike instances ingested into one session, untimed",
    )];
    Ok(Measured {
        shapes,
        samples,
        elapsed_s,
        setup_times: setups.times,
        attempted,
        failed,
        stats,
        cycle_rates,
        extra,
    })
}

/// Tiny instances whose decompositions have every width the cold ladder
/// meets: 1 to 3 under `R, S, T` (chains, treelike), 4 and 5 under `S`
/// (grids). Answering one request on each compiles the query machines
/// while materializing few automaton states.
fn width_probes() -> Vec<Shape> {
    vec![
        Shape::Chain(2),
        Shape::Clique { n: 3, rst: true },
        Shape::Clique { n: 4, rst: true },
        Shape::Clique { n: 5, rst: false },
        Shape::Clique { n: 6, rst: false },
    ]
}

fn warm_machines(session: &mut EvalSession) {
    for shape in width_probes() {
        let query = session.register_query(shape.query());
        let instance = session.register_instance(shape.instance());
        let valuation = session.valuation(instance).clone();
        session.batch_probability_f64(&[ProbabilityRequest {
            query,
            instance,
            valuation,
        }]);
    }
}

/// Treelike instances the long-session probe ingests into one session.
const LONG_SESSION_INSTANCES: usize = 6;

/// How many of `shapes` fail when ingested one after another into a single
/// session at `config`'s budget (the default one, where it is called). The
/// query compiler's state budget bounds the states a machine has memoized
/// over *every* instance it has served, so a long-lived session ingesting
/// fresh treelike instances exhausts the default budget after a few of
/// them, although most alone stay far inside it. The timed loop gives each
/// cycle its own session at [`COLD_STATE_BUDGET`]; this untimed probe keeps
/// that failure mode in the report.
fn long_session_failures(config: &EngineConfig, shapes: &[Shape]) -> usize {
    let mut session = EvalSession::new(config.clone());
    warm_machines(&mut session);
    shapes
        .iter()
        .filter(|shape| {
            let query = session.register_query(shape.query());
            let instance = session.register_instance(shape.instance());
            let valuation = session.valuation(instance).clone();
            session.batch_probability_f64(&[ProbabilityRequest {
                query,
                instance,
                valuation,
            }])[0]
                .is_err()
        })
        .count()
}

/// The instances `update_mix` keeps warm: three chain sizes (for the
/// update scaling exponent), a grid and a treelike instance. Five shapes,
/// so with two structural operations per shape and cycle the median falls
/// inside one shape.
pub fn update_shapes() -> Vec<Shape> {
    vec![
        Shape::Chain(50),
        Shape::Chain(100),
        Shape::Chain(200),
        Shape::Grid(4),
        WARM_TREELIKE,
    ]
}

/// `update_mix`: reweights and structural updates, each followed by one f64
/// answer on the updated instance.
pub fn update_mix(p: &Params) -> Result<Measured, Mismatch> {
    let shapes = update_shapes();
    let queries: Vec<_> = shapes.iter().map(Shape::query).collect();
    let config = EngineConfig::with_threads(p.threads);
    let build = || {
        let mut reg = register(config.clone(), &shapes);
        let mut stream = UpdateStream::new(p.seed, shapes.iter().map(Shape::instance).collect());
        // Install the stream's valuations, answer once per instance, then
        // run one update cycle: the first structural update builds each
        // instance's encoding plan.
        for (k, (instance, valuation)) in stream.mirrors.iter().enumerate() {
            for (fact, _) in instance.facts() {
                reg.session
                    .set_probability(reg.instances[k], fact, valuation.probability(fact).clone())
                    .expect("registered facts accept a probability");
            }
        }
        for k in 0..shapes.len() {
            answer_f64(&reg, k, stream.mirrors[k].1.clone(), &Recorder::off())
                .expect("set-up answers succeed");
        }
        for _ in 0..stream.cycle_len() {
            let (k, update) = stream.next();
            if apply(&mut reg, k, &update, &Recorder::off()).is_ok() {
                stream.apply(k, &update);
            }
            answer_f64(&reg, k, stream.mirrors[k].1.clone(), &Recorder::off())
                .expect("set-up answers succeed");
        }
        (reg, stream)
    };
    let mut setups = Setups::new(p);
    let (mut reg, mut stream) = setups.time(build);
    let before = StatsDelta::of(&reg.session);

    let mut sampler = Sampler::new(p.seed);
    let mut checks = Vec::new();
    let mut samples = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut cycle_rates = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < p.seconds {
        let (cycle_start, done_before) = (Instant::now(), attempted - failed);
        for _ in 0..stream.cycle_len() {
            let (k, update) = stream.next();
            let kind = match update {
                Update::Reweight { .. } => Kind::Reweight,
                _ => Kind::Structural,
            };
            let op = op_span(&p.rec, kind);
            let t = Instant::now();
            let applied = guarded(|| apply(&mut reg, k, &update, &p.rec));
            let call_ms = ms_since(t);
            attempted += 1;
            if !matches!(applied, Some(Ok(()))) {
                failed += 1;
                continue;
            }
            stream.apply(k, &update);
            let valuation = stream.mirrors[k].1.clone();
            let t = Instant::now();
            let answer = guarded(|| answer_f64(&reg, k, valuation, &p.rec));
            let ms = call_ms + ms_since(t);
            drop(op);
            samples.push(Sample {
                kind,
                shape: k,
                ms,
                call_ms,
                requests: 1,
                ok: matches!(answer, Some(Ok(_))),
            });
            match answer {
                Some(Ok(interval)) => {
                    if sampler.take(samples.len() - 1) {
                        checks.push((k, stream.mirrors[k].clone(), interval));
                    }
                }
                _ => failed += 1,
            }
        }
        cycle_rates.push(cycle_rate(attempted - failed - done_before, cycle_start));
        setups.between_cycles(start.elapsed().as_secs_f64(), build);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let stats = StatsDelta::of(&reg.session).since(before);

    for (k, (instance, valuation), interval) in &checks {
        let exact = oracle(instance, valuation, &queries[*k])?;
        check_interval(&shapes[*k].label(), interval, &exact)?;
    }
    // The session's resident state must match the mirror the stream kept.
    for (k, (instance, valuation)) in stream.mirrors.iter().enumerate() {
        if reg.session.valuation(reg.instances[k]) != valuation
            || reg.session.instance(reg.instances[k]).fact_count() != instance.fact_count()
        {
            return Err(Mismatch(format!(
                "{}: session state diverged from the update mirror",
                shapes[k].label()
            )));
        }
    }
    Ok(Measured {
        shapes,
        samples,
        elapsed_s,
        setup_times: setups.times,
        attempted,
        failed,
        stats,
        cycle_rates,
        extra: Vec::new(),
    })
}

fn answer_f64(
    reg: &Registered,
    k: usize,
    valuation: ProbabilityValuation,
    rec: &Recorder,
) -> Result<ErrorInterval, EngineError> {
    let _s = rec.span("engine.batch_probability_f64");
    let mut answer = reg.session.batch_probability_f64(&[ProbabilityRequest {
        query: reg.queries[k],
        instance: reg.instances[k],
        valuation,
    }]);
    answer
        .pop()
        .expect("one answer per request")
        .map(|(_, interval)| interval)
}

fn apply(
    reg: &mut Registered,
    k: usize,
    update: &Update,
    rec: &Recorder,
) -> Result<(), treelineage_engine::UpdateError> {
    let id = reg.instances[k];
    match update {
        Update::Reweight { fact, probability } => {
            let _s = rec.span("engine.set_probability");
            reg.session.set_probability(id, *fact, probability.clone())
        }
        Update::Retract { fact } => {
            let _s = rec.span("engine.retract_fact");
            reg.session.retract_fact(id, *fact)
        }
        Update::Insert { fact, probability } => {
            let _s = rec.span("engine.insert_fact");
            reg.session
                .insert_fact(id, fact.clone(), probability.clone())
        }
    }
    .map(|_| ())
}

/// The root span of one operation: its trace id is the request id.
fn op_span(rec: &Recorder, kind: Kind) -> Span {
    rec.root("op", kind.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelineage_instance::FactId;

    #[test]
    fn chain_oracle_matches_the_match_based_oracle() {
        let shape = Shape::Chain(6);
        let mut instance = shape.instance();
        let mut valuation = Draw::new(5, 1).valuation(&instance);
        for _ in 0..2 {
            let expected = oracle(&instance, &valuation, &shape.query()).expect("oracle");
            assert_eq!(chain_oracle(&instance, &valuation), expected);
            // Again with one match broken: the S fact of position 2 gone.
            instance.remove_fact(FactId(7));
            valuation.swap_remove(FactId(7));
        }
    }
}

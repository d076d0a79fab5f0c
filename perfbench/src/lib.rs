//! End-to-end benchmark of the Tangled/Qat simulator stack.
//!
//! Four closed-loop workloads, each with one client and one operation in
//! flight, run in-process (spawning a process costs more than most
//! operations). Every operation is checked against committed golden
//! results. Untraced runs give the end-to-end metrics; traced runs time
//! each layer from outside, by wrapping calls to its public functions in
//! spans, and read counts from public stats and `tangled-telemetry`.
//! See `README.md` for why each workload and metric was chosen.

pub mod golden;
pub mod host;
pub mod spans;

use std::time::{Duration, Instant};

use gatec::factor::compile_factoring;
use gatec::Compiler;
use golden::{outcome_digest, FactorGolden, Golden, CAMPAIGN_SEEDS};
use pbp_aob::{warm, ChunkStore};
use qat_coproc::{backend_entry, backend_registry, QatConfig, StorageBackend};
use spans::Tracer;
use tangled_serve::{JobKind, JobSpec, Pool, ServeConfig};
use tangled_sim::difftest::{capture, diff_outcomes, DiffConfig, Outcome};
use tangled_sim::engine::{model_registry, Core, ModelEntry, ModelRole};
use tangled_sim::proggen::{encode_program, random_program, Profile, ProgGenOptions};
use tangled_sim::{Coverage, Machine, MachineConfig};
use tangled_telemetry::{self as telemetry, Snapshot};

/// Seed whose campaign outcomes have committed golden digests.
pub const DEFAULT_SEED: u64 = 1;

/// Body length of a campaign program (the `qat-fuzz` default).
pub const CAMPAIGN_LEN: usize = 60;

/// Untimed warm-up, as a share of the measured window.
const WARMUP_SHARE: f64 = 0.05;
/// Fewest warm-up operations, whatever the window.
const MIN_WARMUP_OPS: u64 = 3;
/// A run measures this many blocks of equal length, repeating the set-up
/// between them; a traced run alternates untraced and traced blocks.
const BLOCKS: u32 = 20;

/// Timing models and storage backends with a per-layer metric of their
/// own. Registry entries outside these lists still run; their time is
/// reported under `unattributed.us_per_op`.
pub const MODELS: [&str; 5] = [
    "multicycle",
    "pipeline-4-fw",
    "pipeline-4-nofw",
    "pipeline-5-fw",
    "pipeline-5-nofw",
];
/// See [`MODELS`].
pub const ORACLES: [&str; 4] = ["eager", "interned", "sparse-re", "adaptive"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Factoring 221 at 16 ways on the default configuration, cold store.
    Factor221,
    /// The same operation attached to a warm ChunkStore snapshot.
    Warm221,
    /// One `qat-fuzz` iteration per operation through a serve pool.
    Campaign,
    /// Factoring 221 at 32 ways on the registry's beyond-16 backend.
    Wide32,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Factor221,
        Workload::Warm221,
        Workload::Campaign,
        Workload::Wide32,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Factor221 => "factor221",
            Workload::Warm221 => "warm221",
            Workload::Campaign => "campaign",
            Workload::Wide32 => "wide32",
        }
    }

    /// Look a workload up by its `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run does.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: the campaign's job seeds derive from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations run and checked, warm-up included.
    pub attempted: u64,
    /// Operations that errored or failed their golden check.
    pub failed: u64,
    /// First failure, for the log.
    pub first_error: Option<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Spans of a traced run, as JSON lines.
    pub spans_jsonl: String,
}

impl Report {
    /// Share of attempted operations that failed.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

// ---------------------------------------------------------------------------
// Layers.
// ---------------------------------------------------------------------------

/// Span layers every run registers first, in this order.
const OP: u16 = 0;
const INLINE: u16 = 1;
const ASM: u16 = 2;
const BUILD: u16 = 3;
const RUN: u16 = 4;
const PROGGEN: u16 = 5;
const FUNCTIONAL: u16 = 6;
const CAPTURE: u16 = 7;
const TEARDOWN: u16 = 8;
const FIXED_LAYERS: [&str; 9] = [
    "op",
    "inline",
    "asm",
    "build",
    "run",
    "proggen",
    "difftest.functional",
    "difftest.capture",
    "teardown",
];

fn new_tracer() -> Tracer {
    let mut t = Tracer::default();
    for (i, name) in FIXED_LAYERS.iter().enumerate() {
        assert_eq!(t.layer(name) as usize, i);
    }
    t
}

/// Counts one operation reports for the per-layer metrics.
#[derive(Debug, Default, Clone, Copy)]
struct Probe {
    steps: u64,
    packed_words: u64,
    materializations: u64,
}

impl std::ops::AddAssign for Probe {
    fn add_assign(&mut self, o: Probe) {
        self.steps += o.steps;
        self.packed_words += o.packed_words;
        self.materializations += o.materializations;
    }
}

trait Driver {
    /// One closed-loop operation, checked against the golden outcome.
    fn op(&mut self, i: u64, t: &mut Tracer) -> Result<Probe, String>;

    /// Does [`Driver::op`] hand its work to the job pool, out of reach
    /// of the benchmark's spans?
    fn pooled(&self) -> bool {
        false
    }

    /// Traced runs of pooled drivers only: the same work as
    /// [`Driver::op`] with every layer called directly, so its time
    /// splits into layers.
    fn inline(&mut self, _i: u64, _t: &mut Tracer) -> Result<Probe, String> {
        Ok(Probe::default())
    }
}

// ---------------------------------------------------------------------------
// Factoring workloads.
// ---------------------------------------------------------------------------

/// The configuration a user gets at `ways`: the default backend when it
/// supports the degree, otherwise the first registry entry that does.
pub fn qat_config(ways: u32) -> QatConfig {
    let cfg = QatConfig::with_ways(ways);
    if backend_entry(cfg.backend).supports_ways(ways) {
        return cfg;
    }
    let entry = backend_registry()
        .iter()
        .find(|e| e.supports_ways(ways))
        .expect("some backend supports the benchmark's degree");
    QatConfig::with_backend(entry.backend, ways)
}

/// Gate program for factoring 221 with 8-bit operands.
pub fn factor221_asm() -> String {
    compile_factoring(221, 8, &Compiler::default())
        .expect("factoring 221 compiles")
        .asm
}

/// Assemble, build the machine, run it to halt.
fn run_factoring(asm: &str, cfg: MachineConfig, t: &mut Tracer) -> Result<Machine, String> {
    let img = t
        .span(ASM, |_| tangled_asm::assemble(asm))
        .map_err(|e| e.to_string())?;
    let mut m = t.span(BUILD, |_| Machine::with_image(cfg, &img.words));
    t.span(RUN, |_| m.run()).map_err(|e| e.to_string())?;
    Ok(m)
}

struct Factor {
    asm: String,
    cfg: MachineConfig,
    golden: FactorGolden,
}

impl Driver for Factor {
    fn op(&mut self, _i: u64, t: &mut Tracer) -> Result<Probe, String> {
        let m = run_factoring(&self.asm, self.cfg, t)?;
        self.golden.check(&m)?;
        let probe = Probe {
            steps: m.steps,
            packed_words: m.qat.packed_stats().map_or(0, |p| p.packed_words),
            materializations: m.qat.materializations(),
        };
        t.span(TEARDOWN, |_| drop(m));
        Ok(probe)
    }
}

/// One timed set-up, and what a warm set-up measured about the store.
#[derive(Debug, Default, Clone, Copy)]
struct SetupRep {
    seconds: f64,
    save_us: f64,
    load_us: f64,
    bytes: f64,
}

/// One set-up of a factoring workload. Only the run's first set-up
/// (`register`) registers its warm snapshot: `warm::register` has no
/// release, so every further registration would hold a snapshot for good.
fn factor_setup(
    workload: Workload,
    golden: &Golden,
    register: bool,
) -> Result<(Factor, SetupRep), String> {
    let mut rep = SetupRep::default();
    let t0 = Instant::now();
    let asm = factor221_asm();
    let ways = if workload == Workload::Wide32 { 32 } else { 16 };
    let mut qat = qat_config(ways);
    if workload == Workload::Warm221 {
        // The cold seed run whose store the snapshot captures, saved and
        // loaded back the way `tangled serve --warm-store` does.
        let cold = run_factoring(
            &asm,
            MachineConfig {
                qat,
                ..Default::default()
            },
            &mut new_tracer(),
        )?;
        golden.factor.check(&cold)?;
        let s0 = Instant::now();
        let bytes = cold
            .qat
            .store()
            .ok_or("default backend has no chunk store")?
            .to_bytes();
        rep.save_us = s0.elapsed().as_secs_f64() * 1e6;
        let l0 = Instant::now();
        let snapshot = ChunkStore::from_bytes(&bytes).map_err(|e| e.to_string())?;
        rep.load_us = l0.elapsed().as_secs_f64() * 1e6;
        rep.bytes = bytes.len() as f64;
        if register {
            qat.warm = Some(warm::register(snapshot));
        }
    }
    rep.seconds = t0.elapsed().as_secs_f64();
    let cfg = MachineConfig {
        qat,
        ..Default::default()
    };
    Ok((
        Factor {
            asm,
            cfg,
            golden: golden.factor.clone(),
        },
        rep,
    ))
}

// ---------------------------------------------------------------------------
// Campaign workload.
// ---------------------------------------------------------------------------

/// Generator seed of the campaign's `i`-th job at workload seed `seed`.
pub fn job_seed(seed: u64, i: u64) -> u64 {
    (seed << 32) + i % CAMPAIGN_SEEDS
}

/// Generator options of one `qat-fuzz` iteration: round-robin profiles.
pub fn gen_options(job_seed: u64, cfg: &DiffConfig) -> ProgGenOptions {
    let profiles = Profile::all();
    ProgGenOptions {
        len: CAMPAIGN_LEN,
        ways: cfg.ways,
        profile: profiles[(job_seed % profiles.len() as u64) as usize],
        ..Default::default()
    }
}

/// The job the campaign submits as its `i`-th operation.
pub fn campaign_job(seed: u64, i: u64, cfg: DiffConfig) -> JobSpec {
    let kind = JobKind::Generate {
        seed: job_seed(seed, i),
        profile: None,
        len: CAMPAIGN_LEN,
        crosscheck: false,
    };
    JobSpec::new(kind, cfg)
}

struct Campaign {
    pool: Pool,
    seed: u64,
    cfg: DiffConfig,
    /// Golden digests when running at [`DEFAULT_SEED`].
    digests: Option<Vec<u64>>,
    models: Vec<(u16, &'static ModelEntry)>,
    oracles: Vec<(u16, StorageBackend)>,
}

impl Campaign {
    fn check(&self, i: u64, outcome: &Outcome) -> Result<(), String> {
        if let Some(d) = &self.digests {
            let (want, got) = (d[(i % CAMPAIGN_SEEDS) as usize], outcome_digest(outcome));
            if want != got {
                return Err(format!(
                    "job seed {}: digest {got:016x}, golden {want:016x}",
                    job_seed(self.seed, i)
                ));
            }
        }
        Ok(())
    }

    /// `difftest::compare_all` for one generated program, layer by layer.
    fn inline_job(&self, i: u64, t: &mut Tracer) -> Result<Probe, String> {
        let seed = job_seed(self.seed, i);
        let (prog, words) = t.span(PROGGEN, |_| {
            let prog = random_program(seed, &gen_options(seed, &self.cfg));
            let words = encode_program(&prog);
            (prog, words)
        });
        let mc = self.cfg.machine_config();
        let mut probe = Probe::default();
        let mut cov = Coverage::new();
        cov.note_generated(&prog);
        let reference = t.span(FUNCTIONAL, |t| {
            let mut m = t.span(BUILD, |_| Machine::with_image(mc, &words));
            let fault = t.span(RUN, |_| {
                m.run_with(&mut |ev| cov.note_executed(ev.insn, ev.taken))
            });
            probe.steps += m.steps;
            t.span(CAPTURE, |_| capture(&m, fault))
        });
        for &(layer, entry) in &self.models {
            t.span(layer, |t| {
                let mut core = t.span(BUILD, |_| entry.build(Machine::with_image(mc, &words)));
                let fault = t.span(RUN, |_| core.run_to_halt());
                probe.steps += core.machine().steps;
                let got = t.span(CAPTURE, |_| capture(core.machine(), fault));
                diff_outcomes(entry.name, &reference, &got).map_or(Ok(()), |d| Err(d.to_string()))
            })?;
        }
        for &(layer, backend) in &self.oracles {
            let mut oracle_mc = mc;
            oracle_mc.qat.backend = backend;
            t.span(layer, |t| {
                let mut m = t.span(BUILD, |_| Machine::with_image(oracle_mc, &words));
                let fault = t.span(RUN, |_| m.run_with(&mut |_| {}));
                probe.steps += m.steps;
                let got = t.span(CAPTURE, |_| capture(&m, fault));
                let name = backend_entry(backend).oracle_name;
                diff_outcomes(name, &reference, &got).map_or(Ok(()), |d| Err(d.to_string()))
            })?;
        }
        self.check(i, &reference)?;
        Ok(probe)
    }
}

impl Driver for Campaign {
    fn op(&mut self, i: u64, _t: &mut Tracer) -> Result<Probe, String> {
        self.pool
            .submit(campaign_job(self.seed, i, self.cfg))
            .map_err(|e| e.to_string())?;
        let res = self
            .pool
            .recv_timeout(Duration::from_secs(60))
            .ok_or("campaign job timed out")?;
        let out = res.result.map_err(|e| e.to_string())?;
        if let Some(f) = out.findings.first() {
            return Err(format!("job seed {}: finding {}", f.seed, f.detail));
        }
        self.check(i, out.outcome.as_ref().ok_or("job returned no outcome")?)?;
        Ok(Probe::default())
    }

    fn pooled(&self) -> bool {
        true
    }

    fn inline(&mut self, i: u64, t: &mut Tracer) -> Result<Probe, String> {
        self.inline_job(i, t)
    }
}

/// One set-up of the campaign: start the pool.
fn campaign_setup(seed: u64, golden: &Golden, t: &mut Tracer) -> (Campaign, SetupRep) {
    let t0 = Instant::now();
    let pool = Pool::new(ServeConfig::default());
    let seconds = t0.elapsed().as_secs_f64();
    let cfg = DiffConfig::default();
    let models = model_registry()
        .iter()
        .filter(|e| e.role == ModelRole::Timing)
        .map(|e| (t.layer(&format!("difftest.model.{}", e.name)), e))
        .collect();
    let oracles = backend_registry()
        .iter()
        .filter(|b| b.backend != cfg.backend && b.supports_ways(cfg.ways))
        .map(|b| {
            (
                t.layer(&format!("difftest.oracle.{}", b.backend)),
                b.backend,
            )
        })
        .collect();
    let digests = (seed == DEFAULT_SEED).then(|| golden.campaign.clone());
    (
        Campaign {
            pool,
            seed,
            cfg,
            digests,
            models,
            oracles,
        },
        SetupRep {
            seconds,
            ..Default::default()
        },
    )
}

/// One timed set-up of `cfg.workload`.
fn setup(
    cfg: &RunConfig,
    golden: &Golden,
    t: &mut Tracer,
    first: bool,
) -> Result<(Box<dyn Driver>, SetupRep), String> {
    Ok(match cfg.workload {
        Workload::Campaign => {
            let (c, rep) = campaign_setup(cfg.seed, golden, t);
            (Box::new(c), rep)
        }
        w => {
            let (f, rep) = factor_setup(w, golden, first)?;
            (Box::new(f), rep)
        }
    })
}

// ---------------------------------------------------------------------------
// The measurement loop.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Window {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    /// Latency of each untraced operation after the warm-up (ns).
    lat_ns: Vec<u64>,
    /// Operations per second of each untraced block.
    block_rates: Vec<f64>,
    /// Traced operations: latency of the `op` span (ns).
    traced_lat_ns: Vec<u64>,
    probe: Probe,
    counters: Snapshot,
    /// Untraced blocks: host counters and wall time.
    host: host::HostWindow,
    /// Every set-up of the run.
    setups: Vec<SetupRep>,
    /// Memory probe after each untraced block of a traced run (us).
    mem_probe_us: Vec<f64>,
}

impl Window {
    fn note(&mut self, r: Result<Probe, String>) -> Probe {
        self.attempted += 1;
        match r {
            Ok(p) => p,
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
                Probe::default()
            }
        }
    }
}

/// Run the warm-up, then [`BLOCKS`] timed blocks, repeating the set-up
/// between blocks so that `setup_s` samples the same host conditions as
/// the operations do.
fn measure(
    drv: &mut dyn Driver,
    cfg: &RunConfig,
    t: &mut Tracer,
    resetup: &mut dyn FnMut(&mut Tracer) -> Result<SetupRep, String>,
) -> Result<Window, String> {
    let mut w = Window::default();
    let mut i = 0u64;
    let warm_end = Instant::now() + Duration::from_secs_f64(cfg.seconds * WARMUP_SHARE);
    while i < MIN_WARMUP_OPS || Instant::now() < warm_end {
        let r = drv.op(i, t);
        w.note(r);
        i += 1;
    }
    let block = Duration::from_secs_f64(cfg.seconds / BLOCKS as f64);
    // Only traced runs report the probe; untraced runs leave its 8 MiB
    // out of `peak_rss_mib`.
    let probe = cfg.trace.then(host::MemProbe::default);
    for b in 0..BLOCKS {
        if b > 0 {
            w.setups.push(resetup(t)?);
        }
        let block_end = Instant::now() + block;
        if cfg.trace && b % 2 == 1 {
            telemetry::set_mode(telemetry::Mode::Counters);
            t.set_on(true);
            let pooled = drv.pooled();
            let mut block = || loop {
                t.set_op(i);
                let first = t.spans().len();
                let r = t.span(OP, |t| drv.op(i, t));
                w.traced_lat_ns.push(t.spans()[first].ns());
                let r = match r {
                    Ok(mut p) if pooled => t.span(INLINE, |t| drv.inline(i, t)).map(|q| {
                        p += q;
                        p
                    }),
                    r => r,
                };
                let p = w.note(r);
                w.probe += p;
                i += 1;
                if Instant::now() >= block_end {
                    break;
                }
            };
            // The pool's worker counts its own copy of the work; a scoped
            // capture keeps only this thread's counts. Otherwise the
            // cheaper global counters suffice.
            let counts = if pooled {
                telemetry::scoped(block).1
            } else {
                let before = Snapshot::take();
                block();
                Snapshot::take().delta(&before)
            };
            t.set_on(false);
            telemetry::set_mode(telemetry::Mode::Off);
            w.counters.merge_from(&counts);
        } else {
            let mark = host::HostWindow::mark();
            let ops_before = w.lat_ns.len();
            loop {
                let t0 = Instant::now();
                let r = drv.op(i, t);
                w.lat_ns.push(t0.elapsed().as_nanos() as u64);
                w.note(r);
                i += 1;
                if Instant::now() >= block_end {
                    break;
                }
            }
            let wall_ns = w.host.add(mark);
            let ops = (w.lat_ns.len() - ops_before) as f64;
            w.block_rates.push(ops / (wall_ns.max(1) as f64 * 1e-9));
            if let Some(p) = &probe {
                w.mem_probe_us.push(p.run());
            }
        }
    }
    Ok(w)
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Median (interpolated) of `v`; 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Quantile `q` of `v` by linear interpolation between order statistics.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

// ---------------------------------------------------------------------------
// A run.
// ---------------------------------------------------------------------------

/// Set up `cfg.workload`, run it for `cfg.seconds`, check every operation
/// against `golden`, and compute the run's metrics.
pub fn run(cfg: &RunConfig, golden: &Golden) -> Result<Report, String> {
    let mut t = new_tracer();
    let (mut drv, first) = setup(cfg, golden, &mut t, true)?;
    let mut resetup = |t: &mut Tracer| setup(cfg, golden, t, false).map(|(_, rep)| rep);
    let mut w = measure(drv.as_mut(), cfg, &mut t, &mut resetup)?;
    drop(drv);
    w.setups.push(first);
    let mut setup_s: Vec<f64> = w.setups.iter().map(|r| r.seconds).collect();

    let metrics = if !cfg.trace {
        let mut lat_us: Vec<f64> = w.lat_ns.iter().map(|&n| n as f64 / 1e3).collect();
        // Throughput sustained in nine blocks of ten, and the latency
        // tail: both sit in the host's slow state whenever it holds a
        // tenth of the run. The median follows whichever state holds the
        // majority of a run, so it flips between runs; see README.
        let ops_per_s = quantile(&mut w.block_rates, 0.1);
        vec![
            metric("ops_per_s", ops_per_s, "1/s"),
            metric("op_p90_us", quantile(&mut lat_us, 0.9), "us"),
            metric("setup_s", median(&mut setup_s), "s"),
            metric("peak_rss_mib", host::peak_rss_mib(), "MiB"),
        ]
    } else {
        per_layer(&w, &t)
    };
    let spans_jsonl = if cfg.trace {
        t.to_jsonl()
    } else {
        String::new()
    };
    Ok(Report {
        attempted: w.attempted,
        failed: w.failed,
        first_error: w.first_error,
        metrics,
        spans_jsonl,
    })
}

fn per_layer(w: &Window, t: &Tracer) -> Vec<Metric> {
    let store = |f: fn(&SetupRep) -> f64| median(&mut w.setups.iter().map(f).collect::<Vec<_>>());
    let n = w.traced_lat_ns.len().max(1) as f64;
    let us_per_op = |ns: u64| ns as f64 / 1e3 / n;
    let c = &w.counters;
    let gates: u64 = c
        .iter()
        .filter(|(k, _)| k.starts_with("qat.gate."))
        .map(|(_, v)| v)
        .sum();
    let (hits, misses) = (c.get("intern.hits"), c.get("intern.misses"));
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    // Layers whose spans sit directly under the operation (or, for the
    // campaign, under its inline re-execution); the rest is unattributed.
    let mut layers: Vec<String> = [
        "asm",
        "build",
        "run",
        "teardown",
        "proggen",
        "difftest.functional",
        "difftest.capture",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    layers.extend(MODELS.iter().map(|m| format!("difftest.model.{m}")));
    layers.extend(ORACLES.iter().map(|o| format!("difftest.oracle.{o}")));
    let counted: Vec<&str> = layers.iter().map(String::as_str).collect();
    let (op_ns, inline_ns) = (t.total_ns("op"), t.total_ns("inline"));
    let (top, serve_ns) = if inline_ns > 0 {
        ("inline", op_ns.saturating_sub(inline_ns))
    } else {
        ("op", 0)
    };
    let unattributed = t.total_ns(top) as f64 - t.children_ns(top, &counted) as f64;

    let mut traced = w
        .traced_lat_ns
        .iter()
        .map(|&x| x as f64)
        .collect::<Vec<_>>();
    let mut untraced = w.lat_ns.iter().map(|&x| x as f64).collect::<Vec<_>>();
    let overhead = median(&mut traced) / median(&mut untraced).max(1.0) - 1.0;

    let mut m = vec![
        metric("asm.us_per_op", us_per_op(t.total_ns("asm")), "us"),
        metric("build.us_per_op", us_per_op(t.total_ns("build")), "us"),
        metric(
            "host.minflt_per_op",
            w.host.minflt as f64 / w.lat_ns.len().max(1) as f64,
            "count",
        ),
        metric("run.us_per_op", us_per_op(t.total_ns("run")), "us"),
        metric(
            "teardown.us_per_op",
            us_per_op(t.total_ns("teardown")),
            "us",
        ),
        metric(
            "run.ns_per_step",
            ratio(t.total_ns("run"), w.probe.steps),
            "ns",
        ),
        metric("sim.steps_per_op", w.probe.steps as f64 / n, "count"),
        metric("qat.gates_per_op", gates as f64 / n, "count"),
        metric(
            "qat.fused_share",
            ratio(c.get("qat.fused.gates"), gates),
            "ratio",
        ),
        metric("intern.hits_per_op", hits as f64 / n, "count"),
        metric("intern.misses_per_op", misses as f64 / n, "count"),
        metric("intern.hit_rate", ratio(hits, hits + misses), "ratio"),
        metric("pbp.packed_words", w.probe.packed_words as f64 / n, "count"),
        metric(
            "pbp.materializations_per_op",
            w.probe.materializations as f64 / n,
            "count",
        ),
        metric("store.save_us", store(|r| r.save_us), "us"),
        metric("store.load_us", store(|r| r.load_us), "us"),
        metric("store.bytes", store(|r| r.bytes), "bytes"),
    ];
    for l in &layers[4..] {
        m.push(metric(
            &format!("{l}.us_per_op"),
            us_per_op(t.total_ns(l)),
            "us",
        ));
    }
    m.extend([
        metric("serve.overhead_us_per_op", us_per_op(serve_ns), "us"),
        metric("unattributed.us_per_op", unattributed / 1e3 / n, "us"),
        metric("host.sched_wait_share", w.host.wait_share(), "ratio"),
        metric(
            "host.mem_probe_us",
            median(&mut w.mem_probe_us.clone()),
            "us",
        ),
        metric("trace.overhead", overhead, "ratio"),
        metric("host.nproc", host::nproc() as f64, "count"),
    ]);
    m
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

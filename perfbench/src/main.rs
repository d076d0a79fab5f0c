//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its result as one JSON line, the last
//! line of standard output. `--emit-golden factor|campaign` prints the
//! golden file the current simulator produces instead.

use std::process::ExitCode;

use perfbench::golden::{outcome_digest, FactorGolden, Golden, CAMPAIGN_SEEDS};
use perfbench::{campaign_job, RunConfig, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload factor221|warm221|campaign|wide32 \
                     --seed N --seconds S --trace 0|1\n       perfbench --emit-golden factor|campaign";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: Workload::Factor221,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload `{val}`"))?)
            }
            "--seed" => cfg.seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cfg.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn emit_golden(which: &str) -> Result<String, String> {
    match which {
        "factor" => {
            let asm = perfbench::factor221_asm();
            let img = tangled_asm::assemble(&asm).map_err(|e| e.to_string())?;
            let cfg = tangled_sim::MachineConfig {
                qat: perfbench::qat_config(16),
                ..Default::default()
            };
            let mut m = tangled_sim::Machine::with_image(cfg, &img.words);
            m.run().map_err(|e| e.to_string())?;
            Ok(FactorGolden::of(&m).render())
        }
        "campaign" => {
            let mut text = format!(
                "# Campaign at seed {DEFAULT_SEED}: outcome digest of each job-seed offset 0..{CAMPAIGN_SEEDS}.\n"
            );
            let pool = tangled_serve::Pool::new(Default::default());
            for i in 0..CAMPAIGN_SEEDS {
                pool.submit(campaign_job(DEFAULT_SEED, i, Default::default()))
                    .map_err(|e| e.to_string())?;
            }
            for res in pool.shutdown() {
                let out = res.result.map_err(|e| e.to_string())?;
                let o = out
                    .outcome
                    .filter(|_| out.findings.is_empty())
                    .ok_or(format!("job {} failed", res.id))?;
                text.push_str(&format!("{:016x}\n", outcome_digest(&o)));
            }
            Ok(text)
        }
        _ => Err(format!("unknown golden `{which}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--emit-golden") {
        return match args.get(1).map(|w| emit_golden(w)) {
            Some(Ok(text)) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Some(Err(e)) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
            None => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match perfbench::run(&cfg, &Golden::committed()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(e) = &report.first_error {
        eprintln!(
            "perfbench: {} of {} operations failed; first: {e}",
            report.failed, report.attempted
        );
    }
    if cfg.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "spans-{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, &report.spans_jsonl))
        {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

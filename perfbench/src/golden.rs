//! Expected simulated results, committed under `golden/` and compiled
//! into the benchmark. Every operation is checked against them; a
//! mismatch counts as a failed operation.

use tangled_sim::difftest::Outcome;
use tangled_sim::Machine;

/// Campaign job seeds cycle through this many offsets per run, so the
/// default seed has a golden digest for every job it submits.
pub const CAMPAIGN_SEEDS: u64 = 1024;

/// Architectural state at halt of the factoring-of-221 program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactorGolden {
    /// General-purpose registers `$0`..`$15`.
    pub regs: [u16; 16],
    /// Final program counter.
    pub pc: u16,
    /// Did the program halt cleanly?
    pub halted: bool,
    /// Instructions retired.
    pub steps: u64,
    /// `sys` print output, one item per record.
    pub output: Vec<String>,
}

impl FactorGolden {
    /// The state `m` halted in, in golden form.
    pub fn of(m: &Machine) -> FactorGolden {
        FactorGolden {
            regs: m.regs,
            pc: m.pc,
            halted: m.halted,
            steps: m.steps,
            output: m.output.iter().map(|o| o.to_string()).collect(),
        }
    }

    /// Parse the `golden/factor221.txt` format (see [`FactorGolden::render`]).
    pub fn parse(text: &str) -> Result<FactorGolden, String> {
        let mut g = FactorGolden {
            regs: [0; 16],
            pc: 0,
            halted: false,
            steps: 0,
            output: Vec::new(),
        };
        let mut seen = 0;
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let num = |s: &str| s.parse::<u64>().map_err(|e| format!("golden `{key}`: {e}"));
            match key {
                "regs" => {
                    let regs: Vec<u16> = rest
                        .split_whitespace()
                        .map(|r| r.parse().map_err(|e| format!("golden regs: {e}")))
                        .collect::<Result<_, _>>()?;
                    g.regs = regs
                        .try_into()
                        .map_err(|_| "golden regs: need 16 values".to_string())?;
                }
                "pc" => g.pc = num(rest)? as u16,
                "halted" => g.halted = num(rest)? != 0,
                "steps" => g.steps = num(rest)?,
                "output" => g.output = rest.split_whitespace().map(str::to_string).collect(),
                _ => return Err(format!("golden: unknown key `{key}`")),
            }
            seen += 1;
        }
        if seen != 5 {
            return Err(format!("golden: expected 5 keys, found {seen}"));
        }
        Ok(g)
    }

    /// The committed text form.
    pub fn render(&self) -> String {
        let regs: Vec<String> = self.regs.iter().map(|r| r.to_string()).collect();
        format!(
            "# Factoring 221 (gatec program): architectural state at halt.\n\
             regs {}\npc {}\nhalted {}\nsteps {}\noutput{}\n",
            regs.join(" "),
            self.pc,
            self.halted as u8,
            self.steps,
            self.output
                .iter()
                .map(|o| format!(" {o}"))
                .collect::<String>()
        )
    }

    /// Compare a halted machine against the golden state.
    pub fn check(&self, m: &Machine) -> Result<(), String> {
        if !matches!((m.regs[0], m.regs[1]), (17, 13) | (13, 17)) {
            return Err(format!(
                "factors of 221 are 13 and 17, got {} and {}",
                m.regs[0], m.regs[1]
            ));
        }
        let got = FactorGolden::of(m);
        if &got != self {
            return Err(format!("golden mismatch: expected {self:?}, got {got:?}"));
        }
        Ok(())
    }
}

/// Digest of everything an [`Outcome`] holds: FNV-1a-style mixing of
/// one 64-bit word at a time.
pub fn outcome_digest(o: &Outcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |w: u64| h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
    o.regs.iter().for_each(|&r| eat(r as u64));
    eat(o.pc as u64);
    eat(o.halted as u64);
    eat(o.steps);
    for out in &o.output {
        out.to_string().bytes().for_each(|b| eat(b as u64));
        eat(u64::MAX);
    }
    format!("{:?}", o.fault).bytes().for_each(|b| eat(b as u64));
    o.data_page.iter().for_each(|&w| eat(w as u64));
    eat(o.mem_hash);
    o.qat_regs
        .iter()
        .flat_map(|q| q.words())
        .for_each(|&w| eat(w));
    h
}

/// Parse `golden/campaign-seed1.txt`: one hex digest per job-seed offset.
pub fn parse_digests(text: &str) -> Result<Vec<u64>, String> {
    let digests: Vec<u64> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| u64::from_str_radix(l.trim(), 16).map_err(|e| format!("golden digest: {e}")))
        .collect::<Result<_, _>>()?;
    if digests.len() as u64 != CAMPAIGN_SEEDS {
        return Err(format!(
            "golden: expected {CAMPAIGN_SEEDS} digests, found {}",
            digests.len()
        ));
    }
    Ok(digests)
}

/// Everything the benchmark checks against.
#[derive(Debug, Clone)]
pub struct Golden {
    /// Factoring workloads.
    pub factor: FactorGolden,
    /// Campaign outcome digests at [`crate::DEFAULT_SEED`], by job-seed offset.
    pub campaign: Vec<u64>,
}

impl Golden {
    /// The committed golden files.
    pub fn committed() -> Golden {
        Golden {
            factor: FactorGolden::parse(include_str!("../golden/factor221.txt"))
                .expect("committed factoring golden parses"),
            campaign: parse_digests(include_str!("../golden/campaign-seed1.txt"))
                .expect("committed campaign golden parses"),
        }
    }
}

//! Packed hybrid run encoding for the RE representation.
//!
//! A flat `Vec<Run>` spends 16 bytes per run (a 4-byte interned symbol id,
//! padding, and an 8-byte chunk length) even though almost every run in
//! practice is "a few all-zeros chunks" or "a few all-ones chunks", and
//! structured states (Hadamard banks, shifted constants) repeat whole
//! *sequences* of runs. [`PackedRuns`] stores a period as a sequence of
//! little `u32` command words instead, with the command tag packed into
//! the low 3 bits:
//!
//! | tag | name     | payload (`w >> 3`, 29 bits) | extra word           |
//! |-----|----------|-----------------------------|----------------------|
//! | 0   | `Zeros`  | run length in chunks        | —                    |
//! | 1   | `Ones`   | run length in chunks        | —                    |
//! | 2   | `Lit`    | symbol id                   | — (single chunk)     |
//! | 3   | `LitRun` | run length in chunks        | raw symbol id        |
//! | 4   | `Repeat` | length in runs              | start run index      |
//! | 5   | `Extend` | extra chunks                | — (grows prior run)  |
//!
//! so the common constant runs cost one word (4 bytes, a 4x saving), a
//! single odd chunk costs one word, and an arbitrary run costs two.
//!
//! **Literal spill rule.** Length and symbol payloads are 29 bits. A run
//! longer than `2^29 - 1` chunks spills: the base command carries the
//! first `2^29 - 1` chunks and one `Extend` command follows per further
//! `2^29 - 1` chunks, growing the *same* logical run (so spilling never
//! changes the decoded run list, only the word count). A single-chunk
//! symbol whose raw id does not fit 29 bits uses the two-word `LitRun`
//! form instead of `Lit`.
//!
//! **RepeatFinder.** Before encoding, a greedy LZ pass factors the run
//! list against itself: `Repeat { start, len }` re-emits `len`
//! already-decoded runs beginning at logical run index `start`. Matches
//! are found with zlib-style hash chains at run-token granularity: a
//! fixed hash of the next [`MIN_REPEAT_RUNS`] tokens picks a bucket, up to
//! [`MAX_CHAIN`] already-emitted positions in that bucket are tried newest
//! first and extended token by token, and only a strictly longer match
//! replaces the best. Every emitted position is then linked into its
//! bucket's chain. A candidate never extends past the match that wins, so
//! the pass makes `O(MAX_CHAIN)` token compares per run it covers and
//! stays linear in the run count. This is what makes cross-symbol
//! periodicity — a Hadamard bank's `(0^a 1^a)` cadence interleaved with
//! other structure — compress *superlinearly*: each repeat command can
//! cover every run seen so far, so `n` repetitions of a motif cost
//! `O(log n)` commands instead of `O(n)` runs.
//!
//! Invariants the encoder maintains (and the tests pin):
//!
//! * **Exactness** — `decode(pack(runs)) == runs` for every run list
//!   (repeats are token-aligned and copy `Run` structs verbatim, so no
//!   resplitting or remerging can occur).
//! * **Back-reference** — a `Repeat`'s `start` is always strictly below
//!   the current logical run index; self-overlapping repeats
//!   (`start + len` past the current index) are legal and decode
//!   run-by-run, exactly like LZ77.
//! * **Determinism** — packing is a pure function of the run list: equal
//!   run lists produce identical words, so the derived equality on
//!   [`PackedRuns`] coincides with run-list equality and corpus replays
//!   are bit-stable.

use crate::re::Run;
use crate::{Sym, SYM_ONE, SYM_ZERO};

/// Low bits of every command word that carry the tag.
const TAG_BITS: u32 = 3;
/// Largest length / symbol payload a single command word carries.
const MAX_PAYLOAD: u64 = (1u64 << (32 - TAG_BITS)) - 1;

const TAG_ZEROS: u32 = 0;
const TAG_ONES: u32 = 1;
const TAG_LIT: u32 = 2;
const TAG_LIT_RUN: u32 = 3;
const TAG_REPEAT: u32 = 4;
const TAG_EXTEND: u32 = 5;

/// A repeat must cover at least this many runs to be emitted (a repeat
/// costs two words; three constant runs cost three).
const MIN_REPEAT_RUNS: usize = 3;
/// Candidates tried per match search, newest first. The factoring
/// programs at 32 ways pack to the same word counts at any depth from 8
/// to 256; a random 65,536-run list over four symbols, where chains run
/// long, packs into as few words at 64 as at 256 (3% fewer than at 8).
const MAX_CHAIN: usize = 64;
/// End of a hash chain.
const NIL: u32 = u32::MAX;
/// Odd multiplier of the bucket hash (the 64-bit golden ratio).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// A period's run list in the packed hybrid encoding. See the module
/// docs for the format.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PackedRuns {
    words: Vec<u32>,
    runs: u32,
    chunks: u64,
    repeats: u32,
}

impl PackedRuns {
    /// Encode a run list (adjacent runs must already be merged and every
    /// length non-zero — the RE layer's canonical form).
    pub fn pack(runs: &[Run]) -> PackedRuns {
        debug_assert!(runs.iter().all(|r| r.len > 0));
        let chunks: u64 = runs.iter().map(|r| r.len).sum();
        let mut words = Vec::with_capacity(runs.len());
        let mut repeats = 0u32;
        let mut i = 0usize;
        let mut finder = RepeatFinder::new(runs);
        while i < runs.len() {
            match finder.longest_match(i) {
                Some((start, len)) => {
                    words.push(TAG_REPEAT | ((len as u32) << TAG_BITS));
                    words.push(start as u32);
                    repeats += 1;
                    finder.commit(i, len);
                    i += len;
                }
                None => {
                    encode_run(&mut words, runs[i]);
                    finder.commit(i, 1);
                    i += 1;
                }
            }
        }
        PackedRuns { words, runs: runs.len() as u32, chunks, repeats }
    }

    /// Logical (decoded) run count.
    pub fn runs(&self) -> usize {
        self.runs as usize
    }

    /// Total chunks the period covers.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Stored command words (the packed footprint, in `u32`s).
    pub fn words(&self) -> usize {
        self.words.len()
    }

    /// `Repeat` commands in the stored stream.
    pub fn repeat_commands(&self) -> usize {
        self.repeats as usize
    }

    /// Expand back to the flat run list.
    pub fn decode(&self) -> Vec<Run> {
        let mut out: Vec<Run> = Vec::with_capacity(self.runs as usize);
        let mut k = 0usize;
        while k < self.words.len() {
            let w = self.words[k];
            let tag = w & ((1 << TAG_BITS) - 1);
            let payload = (w >> TAG_BITS) as u64;
            match tag {
                TAG_ZEROS => out.push(Run { sym: SYM_ZERO, len: payload }),
                TAG_ONES => out.push(Run { sym: SYM_ONE, len: payload }),
                TAG_LIT => {
                    out.push(Run { sym: Sym::from_raw(payload as u32), len: 1 })
                }
                TAG_LIT_RUN => {
                    k += 1;
                    out.push(Run { sym: Sym::from_raw(self.words[k]), len: payload });
                }
                TAG_REPEAT => {
                    k += 1;
                    let start = self.words[k] as usize;
                    // May self-overlap: copy run-by-run so later source
                    // indices read runs this very command produced.
                    for t in 0..payload as usize {
                        let r = out[start + t];
                        out.push(r);
                    }
                }
                TAG_EXTEND => out.last_mut().expect("extend follows a run").len += payload,
                _ => unreachable!("tag {tag}"),
            }
            k += 1;
        }
        out
    }

    /// Iterate the logical runs. Streams straight off the command words
    /// when no `Repeat` is present (the common case for small periods);
    /// otherwise decodes once and drains the buffer.
    pub fn iter(&self) -> RunIter<'_> {
        if self.repeats == 0 {
            RunIter(IterInner::Stream { words: &self.words, k: 0 })
        } else {
            RunIter(IterInner::Buffered(self.decode().into_iter()))
        }
    }
}

/// Emit one run as command words, applying the literal spill rule.
fn encode_run(words: &mut Vec<u32>, r: Run) {
    let first = r.len.min(MAX_PAYLOAD);
    if r.sym == SYM_ZERO {
        words.push(TAG_ZEROS | ((first as u32) << TAG_BITS));
    } else if r.sym == SYM_ONE {
        words.push(TAG_ONES | ((first as u32) << TAG_BITS));
    } else if r.len == 1 && (r.sym.raw() as u64) <= MAX_PAYLOAD {
        words.push(TAG_LIT | (r.sym.raw() << TAG_BITS));
    } else {
        words.push(TAG_LIT_RUN | ((first as u32) << TAG_BITS));
        words.push(r.sym.raw());
    }
    let mut rest = r.len - first;
    while rest > 0 {
        let take = rest.min(MAX_PAYLOAD);
        words.push(TAG_EXTEND | ((take as u32) << TAG_BITS));
        rest -= take;
    }
}

/// Iterator over a [`PackedRuns`]'s logical runs.
pub struct RunIter<'a>(IterInner<'a>);

enum IterInner<'a> {
    Stream { words: &'a [u32], k: usize },
    Buffered(std::vec::IntoIter<Run>),
}

impl Iterator for RunIter<'_> {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        match &mut self.0 {
            IterInner::Buffered(it) => it.next(),
            IterInner::Stream { words, k } => {
                if *k >= words.len() {
                    return None;
                }
                let w = words[*k];
                let tag = w & ((1 << TAG_BITS) - 1);
                let payload = (w >> TAG_BITS) as u64;
                *k += 1;
                let mut run = match tag {
                    TAG_ZEROS => Run { sym: SYM_ZERO, len: payload },
                    TAG_ONES => Run { sym: SYM_ONE, len: payload },
                    TAG_LIT => Run { sym: Sym::from_raw(payload as u32), len: 1 },
                    TAG_LIT_RUN => {
                        let sym = Sym::from_raw(words[*k]);
                        *k += 1;
                        Run { sym, len: payload }
                    }
                    _ => unreachable!("stream iteration only without repeats"),
                };
                // Fold any spill continuation into the logical run.
                while *k < words.len()
                    && words[*k] & ((1 << TAG_BITS) - 1) == TAG_EXTEND
                {
                    run.len += (words[*k] >> TAG_BITS) as u64;
                    *k += 1;
                }
                Some(run)
            }
        }
    }
}

/// Greedy LZ matcher over run tokens, backed by zlib-style hash chains.
struct RepeatFinder<'a> {
    toks: &'a [Run],
    /// Newest committed position per bucket of [`Self::bucket`], or
    /// [`NIL`]. Empty for lists too short to hold a repeat.
    head: Vec<u32>,
    /// `prev[p]` is the next older committed position in `p`'s bucket.
    /// Only positions already emitted (strictly below the encoder's
    /// cursor) are linked, so every match is a legal back-reference.
    prev: Vec<u32>,
}

impl<'a> RepeatFinder<'a> {
    fn new(toks: &'a [Run]) -> Self {
        if toks.len() <= MIN_REPEAT_RUNS {
            return RepeatFinder { toks, head: Vec::new(), prev: Vec::new() };
        }
        let buckets = toks.len().next_power_of_two();
        RepeatFinder { toks, head: vec![NIL; buckets], prev: vec![NIL; toks.len()] }
    }

    /// Bucket of the [`MIN_REPEAT_RUNS`] tokens starting at `i`, or `None`
    /// when fewer remain (no match can start there). A fixed
    /// multiply-rotate hash, so packing stays a pure function of the runs.
    fn bucket(&self, i: usize) -> Option<usize> {
        let window = self.toks.get(i..i + MIN_REPEAT_RUNS)?;
        let mut h = 0u64;
        for r in window {
            h = (h ^ u64::from(r.sym.raw())).wrapping_mul(HASH_MUL).rotate_left(23);
            h = (h ^ r.len).wrapping_mul(HASH_MUL).rotate_left(23);
        }
        Some((h >> 32) as usize & (self.head.len() - 1))
    }

    /// Common-prefix length of the suffixes at `i` and `j`, capped at the
    /// end of the token list and the command payload width.
    fn lcp(&self, i: usize, j: usize) -> usize {
        let toks = self.toks;
        let cap = (toks.len() - i).min(MAX_PAYLOAD as usize);
        let mut n = 0;
        while n < cap && j + n < toks.len() && toks[i + n] == toks[j + n] {
            n += 1;
        }
        n
    }

    /// Longest back-reference for the suffix starting at `i`, as
    /// `(start, len)` with `start < i`, or `None` when no match clears
    /// [`MIN_REPEAT_RUNS`]. Walks at most [`MAX_CHAIN`] candidates of
    /// `i`'s bucket, newest first; only a strictly longer match replaces
    /// the best, so ties go to the newest position.
    fn longest_match(&self, i: usize) -> Option<(usize, usize)> {
        if self.head.is_empty() {
            return None;
        }
        let cap = (self.toks.len() - i).min(MAX_PAYLOAD as usize);
        let mut best = (0usize, 0usize);
        let mut p = self.head[self.bucket(i)?];
        for _ in 0..MAX_CHAIN {
            if p == NIL {
                break;
            }
            let l = self.lcp(i, p as usize);
            if l > best.1 {
                best = (p as usize, l);
                if l == cap {
                    break;
                }
            }
            p = self.prev[p as usize];
        }
        (best.1 >= MIN_REPEAT_RUNS).then_some(best)
    }

    /// Record that positions `i..i + n` have been emitted (literally or
    /// via a repeat), linking each into its bucket's chain as a match
    /// source.
    fn commit(&mut self, i: usize, n: usize) {
        if self.head.is_empty() {
            return;
        }
        for p in i..i + n {
            if let Some(b) = self.bucket(p) {
                self.prev[p] = self.head[b];
                self.head[b] = p as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbp_aob::ChunkId;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn run(sym: u32, len: u64) -> Run {
        Run { sym: ChunkId::from_raw(sym), len }
    }

    fn roundtrip(runs: &[Run]) -> PackedRuns {
        let p = PackedRuns::pack(runs);
        assert_eq!(p.decode(), runs, "decode(pack) must be exact");
        assert_eq!(p.iter().collect::<Vec<_>>(), runs, "iter must match decode");
        assert_eq!(p.runs(), runs.len());
        assert_eq!(p.chunks(), runs.iter().map(|r| r.len).sum::<u64>());
        p
    }

    #[test]
    fn constant_runs_cost_one_word() {
        let p = roundtrip(&[run(0, 1000), run(1, 7)]);
        assert_eq!(p.words(), 2);
        assert_eq!(p.repeat_commands(), 0);
    }

    #[test]
    fn literal_forms() {
        // Single odd chunk: one word. Multi-chunk odd symbol: two words.
        let p = roundtrip(&[run(9, 1)]);
        assert_eq!(p.words(), 1);
        let p = roundtrip(&[run(9, 5)]);
        assert_eq!(p.words(), 2);
    }

    #[test]
    fn spill_rule_splits_giant_runs() {
        // 2^33 chunks: base word + Extend continuations, one logical run.
        let p = roundtrip(&[run(0, 1 << 33), run(1, 1)]);
        assert_eq!(p.runs(), 2);
        assert!(p.words() > 2, "giant run must spill");
    }

    #[test]
    fn periodic_run_lists_compress_superlinearly() {
        // 512 runs of a two-run motif: greedy self-overlapping repeats
        // cover the tail in O(log n) commands.
        let mut runs = Vec::new();
        for _ in 0..256 {
            runs.push(run(0, 3));
            runs.push(run(1, 5));
        }
        let p = roundtrip(&runs);
        assert!(p.repeat_commands() >= 1);
        assert!(
            p.words() <= 24,
            "512-run periodic list should pack far below linear: {} words",
            p.words()
        );
    }

    #[test]
    fn shifted_motifs_are_found_across_symbols() {
        // A "Hadamard bank" shape: distinct literal symbols, but the
        // 4-run motif repeats — RepeatFinder must catch it even though
        // no single run repeats adjacently.
        let motif = [run(7, 2), run(0, 4), run(8, 2), run(1, 4)];
        let mut runs = Vec::new();
        for _ in 0..64 {
            runs.extend_from_slice(&motif);
        }
        let p = roundtrip(&runs);
        assert!(p.repeat_commands() >= 1);
        assert!(p.words() < runs.len(), "{} words for {} runs", p.words(), runs.len());
    }

    #[test]
    fn aperiodic_lists_stay_exact() {
        // No structure: every run distinct. Must round-trip exactly and
        // cost at most two words per run.
        let runs: Vec<Run> = (0..100).map(|i| run(6 + i, 1 + (i as u64 % 9))).collect();
        let p = roundtrip(&runs);
        assert!(p.words() <= 2 * runs.len());
    }

    #[test]
    fn packing_is_deterministic() {
        let mut runs = Vec::new();
        for i in 0..200u32 {
            runs.push(run(i % 5, 1 + u64::from(i % 3)));
        }
        let mut merged: Vec<Run> = Vec::new();
        for r in runs {
            match merged.last_mut() {
                Some(l) if l.sym == r.sym => l.len += r.len,
                _ => merged.push(r),
            }
        }
        let a = PackedRuns::pack(&merged);
        let b = PackedRuns::pack(&merged);
        assert_eq!(a, b);
        assert_eq!(a.decode(), b.decode());
    }

    /// Canonical form: adjacent equal-symbol runs merged.
    fn merged(runs: Vec<Run>) -> Vec<Run> {
        let mut out: Vec<Run> = Vec::with_capacity(runs.len());
        for r in runs {
            match out.last_mut() {
                Some(l) if l.sym == r.sym => l.len += r.len,
                _ => out.push(r),
            }
        }
        out
    }

    /// A run token from a small alphabet (so motifs collide), including
    /// the constant symbols and raw ids too wide for the one-word `Lit`.
    fn token() -> impl Strategy<Value = Run> {
        let sym = prop_oneof![0u32..6, (1u32 << 29)..(1u32 << 29) + 3];
        (sym, 1u64..6).prop_map(|(s, l)| run(s, l))
    }

    fn run_list() -> impl Strategy<Value = Vec<Run>> {
        prop_oneof![
            // Periodic: one motif, repeated.
            (vec(token(), 1..6), 1usize..200).prop_map(|(m, reps)| m.repeat(reps)),
            // Shifted cross-symbol motif: every `gap`-th repetition has
            // one token replaced by a fresh symbol, so matches break at
            // shifting offsets and must restart mid-motif.
            (vec(token(), 2..8), 1usize..100, 1usize..5).prop_map(|(m, reps, gap)| {
                let mut out = Vec::new();
                for k in 0..reps {
                    out.extend_from_slice(&m);
                    if k % gap == 0 {
                        let at = out.len() - 1 - k % m.len();
                        out[at].sym = ChunkId::from_raw(100 + k as u32);
                    }
                }
                out
            }),
            // Aperiodic: every run distinct.
            (1usize..300).prop_map(|n| {
                (0..n).map(|i| run(6 + i as u32, 1 + (i as u64 * 7) % 11)).collect()
            }),
            // Spill-sized runs between ordinary tokens.
            vec(
                prop_oneof![
                    token(),
                    (0u32..3, MAX_PAYLOAD - 2..3 * MAX_PAYLOAD).prop_map(|(s, l)| run(s, l)),
                ],
                1..40
            ),
            // Large lists: up to 2^14 runs, past every period the
            // factoring programs build at 32 ways (under 1,000 runs).
            (1usize << 12..1 << 14, 2u32..5, any::<bool>()).prop_map(|(n, m, noisy)| {
                (0..n)
                    .map(|k| {
                        let len = if noisy { 1 + (k * k * 31 % 101) as u64 } else { 1 };
                        run(k as u32 % m, len)
                    })
                    .collect()
            }),
        ]
        .prop_map(merged)
    }

    /// `(start, index)` of every `Repeat` command: its source run index
    /// and the logical run index it is decoded at.
    fn repeat_sites(p: &PackedRuns) -> Vec<(usize, usize)> {
        let mut sites = Vec::new();
        let (mut k, mut at) = (0usize, 0usize);
        while k < p.words.len() {
            let w = p.words[k];
            let payload = (w >> TAG_BITS) as usize;
            match w & ((1 << TAG_BITS) - 1) {
                TAG_REPEAT => {
                    sites.push((p.words[k + 1] as usize, at));
                    at += payload;
                    k += 1;
                }
                TAG_LIT_RUN => {
                    at += 1;
                    k += 1;
                }
                TAG_EXTEND => {}
                _ => at += 1,
            }
            k += 1;
        }
        sites
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The encoder's contract over random run lists: exact round
        /// trip, streaming iteration equal to decoding, determinism,
        /// strict back-references, and never more than two words per run
        /// plus spill continuations.
        #[test]
        fn pack_contract_holds(runs in run_list()) {
            let p = PackedRuns::pack(&runs);
            prop_assert_eq!(p.decode(), runs.clone());
            prop_assert_eq!(p.iter().collect::<Vec<_>>(), runs.clone());
            prop_assert_eq!(p.runs(), runs.len());
            prop_assert_eq!(&PackedRuns::pack(&runs), &p);
            let sites = repeat_sites(&p);
            prop_assert_eq!(sites.len(), p.repeat_commands());
            for (start, at) in sites {
                prop_assert!(start < at, "repeat from {} at run {}", start, at);
            }
            let spill: usize = runs.iter().map(|r| ((r.len - 1) / MAX_PAYLOAD) as usize).sum();
            prop_assert!(
                p.words() <= 2 * runs.len() + spill,
                "{} words for {} runs + {} spill", p.words(), runs.len(), spill
            );
        }
    }
}

//! Deterministic hash lotteries.
//!
//! Two primitives the protocols share:
//!
//! * [`lottery_score`] — a verifiable pseudo-random score binding an epoch
//!   seed, a round, and a participant identity. Used for intra-cluster
//!   leader election (lowest score wins) in place of a VRF; every honest
//!   node computes the same winner without communication.
//! * [`rendezvous_rank`] — highest-random-weight (HRW) hashing, used by the
//!   storage layer to map a block to the `r` responsible nodes of a cluster
//!   with minimal reshuffling when membership changes.
//!
//! Both are one short fixed-layout message per participant, and a
//! lottery or a ranking hashes one per member. The per-id functions are
//! the specification; [`for_each_lottery_score`] and
//! [`for_each_rendezvous_rank`] compute the same values for a whole
//! candidate set, `LANES` messages per kernel call, with each message
//! laid out in place (no streaming hasher, no allocation). Every
//! protocol caller goes through them.

use crate::sha256::{compress_lanes, count_digests, Digest, Sha256, H0, LANES};

/// Domain tag of [`lottery_score`].
const LOTTERY_DOMAIN: &[u8; 15] = b"ici-lottery-v1:";
/// Domain tag of [`rendezvous_rank`].
const HRW_DOMAIN: &[u8; 11] = b"ici-hrw-v1:";

/// A lottery message: domain ‖ seed ‖ round ‖ participant.
const LOTTERY_LEN: usize = 15 + 32 + 8 + 8;
/// A ranking message: domain ‖ key ‖ node.
const HRW_LEN: usize = 11 + 32 + 8;

/// Computes the lottery score of `participant` for `(seed, round)`.
///
/// Scores are uniform in `u64`; the convention across the workspace is that
/// the *lowest* score wins. Ties are broken by the caller using the
/// participant identity.
pub fn lottery_score(seed: &Digest, round: u64, participant: u64) -> u64 {
    let mut h = Sha256::new();
    h.update(LOTTERY_DOMAIN);
    h.update(seed.as_bytes());
    h.update(&round.to_be_bytes());
    h.update(&participant.to_be_bytes());
    h.finalize().prefix_u64()
}

/// Calls `f(id, lottery_score(seed, round, id))` for every id of `ids`,
/// in order, hashing `LANES` ids per kernel call.
///
/// The 63-byte message fills the first block up to the 0x80 pad byte,
/// so the second block holds only the length: the same block for every
/// participant, which each lane reuses.
pub fn for_each_lottery_score<I>(seed: &Digest, round: u64, ids: I, f: impl FnMut(u64, u64))
where
    I: IntoIterator<Item = u64>,
{
    let mut first = [0u8; 64];
    first[..15].copy_from_slice(LOTTERY_DOMAIN);
    first[15..47].copy_from_slice(seed.as_bytes());
    first[47..55].copy_from_slice(&round.to_be_bytes());
    first[LOTTERY_LEN] = 0x80;
    let mut length = [0u8; 64];
    length[56..].copy_from_slice(&(LOTTERY_LEN as u64 * 8).to_be_bytes());
    for_each_prefix(ids, &first, 55, Some(&length), LOTTERY_LEN as u64, f);
}

/// Returns the participant with the minimal lottery score, breaking ties by
/// the smaller identity. Returns `None` for an empty candidate set.
pub fn lottery_winner<I>(seed: &Digest, round: u64, candidates: I) -> Option<u64>
where
    I: IntoIterator<Item = u64>,
{
    let mut best: Option<(u64, u64)> = None;
    for_each_lottery_score(seed, round, candidates, |id, score| {
        if best.is_none_or(|b| (score, id) < b) {
            best = Some((score, id));
        }
    });
    best.map(|(_, id)| id)
}

/// Computes the HRW (rendezvous) weight of `node` for `key`.
///
/// To pick the `r` owners of a key among a node set, take the `r` nodes with
/// the *highest* weights (see [`rendezvous_top`]). When a node joins or
/// leaves, only the keys whose top-`r` set intersected it move — the property
/// that keeps re-replication traffic small after churn.
pub fn rendezvous_rank(key: &Digest, node: u64) -> u64 {
    let mut h = Sha256::new();
    h.update(HRW_DOMAIN);
    h.update(key.as_bytes());
    h.update(&node.to_be_bytes());
    h.finalize().prefix_u64()
}

/// Calls `f(id, rendezvous_rank(key, id))` for every id of `ids`, in
/// order, hashing `LANES` ids per kernel call. The 51-byte message and
/// its padding fit one block.
pub fn for_each_rendezvous_rank<I>(key: &Digest, ids: I, f: impl FnMut(u64, u64))
where
    I: IntoIterator<Item = u64>,
{
    let mut block = [0u8; 64];
    block[..11].copy_from_slice(HRW_DOMAIN);
    block[11..43].copy_from_slice(key.as_bytes());
    block[HRW_LEN] = 0x80;
    block[56..].copy_from_slice(&(HRW_LEN as u64 * 8).to_be_bytes());
    for_each_prefix(ids, &block, 43, None, HRW_LEN as u64, f);
}

/// Returns the `r` nodes with the highest rendezvous weight for `key`,
/// ordered best-first. If fewer than `r` candidates exist, all are returned.
pub fn rendezvous_top<I>(key: &Digest, candidates: I, r: usize) -> Vec<u64>
where
    I: IntoIterator<Item = u64>,
{
    let candidates = candidates.into_iter();
    // Best first: highest weight, ties broken by smaller id for
    // determinism. Kept sorted, never longer than `r`.
    let mut top: Vec<(u64, u64)> = Vec::with_capacity(r.min(candidates.size_hint().0));
    for_each_rendezvous_rank(key, candidates, |id, rank| {
        let at = top.partition_point(|&(w, n)| w > rank || (w == rank && n <= id));
        if at < r {
            top.truncate(r - 1);
            top.insert(at, (rank, id));
        }
    });
    top.into_iter().map(|(_, id)| id).collect()
}

/// The batch driver under both `for_each_*` functions: `template` is
/// the first block of every message, with the id's big-endian bytes
/// still to go at `at`; `tail`, if any, is a second block shared by all.
/// Ids are hashed [`LANES`] at a time, and a short final batch one by
/// one. `f` sees `(id, digest prefix)` in input order. The three
/// `crypto/sha256_*` counters move once, by what hashing each
/// `message_len`-byte message through [`Sha256`] would have added.
fn for_each_prefix<I>(
    ids: I,
    template: &[u8; 64],
    at: usize,
    tail: Option<&[u8; 64]>,
    message_len: u64,
    mut f: impl FnMut(u64, u64),
) where
    I: IntoIterator<Item = u64>,
{
    let mut lanes = [0u64; LANES];
    let mut blocks = [*template; LANES];
    let mut filled = 0;
    let mut hashed = 0u64;
    for id in ids {
        lanes[filled] = id;
        blocks[filled][at..at + 8].copy_from_slice(&id.to_be_bytes());
        filled += 1;
        if filled == LANES {
            hash_lanes(&lanes, &blocks, tail, &mut f);
            hashed += LANES as u64;
            filled = 0;
        }
    }
    for (id, block) in lanes.iter().zip(&blocks).take(filled) {
        hash_lanes(&[*id], std::array::from_ref(block), tail, &mut f);
        hashed += 1;
    }
    if hashed > 0 {
        let blocks_each = message_len.wrapping_add(9).div_ceil(64);
        count_digests(hashed, hashed * message_len, hashed * blocks_each);
    }
}

/// One kernel call's worth: lane `i` hashes `blocks[i]` (then `tail`)
/// from the initial state and hands `(ids[i], digest prefix)` to `f`.
#[inline]
fn hash_lanes<const L: usize>(
    ids: &[u64; L],
    blocks: &[[u8; 64]; L],
    tail: Option<&[u8; 64]>,
    f: &mut impl FnMut(u64, u64),
) {
    let mut states = [H0; L];
    compress_lanes(&mut states, blocks);
    if let Some(tail) = tail {
        compress_lanes(&mut states, &[*tail; L]);
    }
    for (&id, state) in ids.iter().zip(&states) {
        // The digest's first eight bytes are state words 0 and 1,
        // big-endian.
        f(id, (u64::from(state[0]) << 32) | u64::from(state[1]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed(tag: u8) -> Digest {
        Sha256::digest(&[tag])
    }

    /// The batched functions are the per-id specification, at every
    /// batch length from empty through three full kernel calls and a
    /// short one, over ids at both ends of the range and repeated ids,
    /// on every kernel.
    #[test]
    fn batched_scores_match_the_per_id_functions() {
        let pool = [0, u64::MAX, 7, 7, 1 << 32, u64::MAX, 0, 12_345_678_901];
        crate::sha256::under_every_kernel(|kernel| {
            for len in 0..=3 * LANES + 1 {
                let ids: Vec<u64> = (0..len).map(|i| pool[i * 5 % pool.len()]).collect();
                for (s, round) in [(seed(1), 5), (seed(2), u64::MAX)] {
                    let mut got = Vec::new();
                    for_each_lottery_score(&s, round, ids.iter().copied(), |id, score| {
                        got.push((id, score));
                    });
                    let expected: Vec<(u64, u64)> = ids
                        .iter()
                        .map(|&id| (id, lottery_score(&s, round, id)))
                        .collect();
                    assert_eq!(got, expected, "lottery, kernel {kernel}, len {len}");

                    let mut got = Vec::new();
                    for_each_rendezvous_rank(&s, ids.iter().copied(), |id, rank| {
                        got.push((id, rank));
                    });
                    let expected: Vec<(u64, u64)> = ids
                        .iter()
                        .map(|&id| (id, rendezvous_rank(&s, id)))
                        .collect();
                    assert_eq!(got, expected, "ranking, kernel {kernel}, len {len}");
                }
            }
        });
    }

    /// `rendezvous_top` is sort-all-then-truncate, for every `r` up to
    /// past the candidate count, duplicates included.
    #[test]
    fn rendezvous_top_is_the_sorted_prefix() {
        let key = seed(11);
        let ids: Vec<u64> = [9, 3, u64::MAX, 3, 0, 40, 41, 42, 9, 17].to_vec();
        let mut sorted: Vec<(u64, u64)> = ids
            .iter()
            .map(|&id| (rendezvous_rank(&key, id), id))
            .collect();
        sorted.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for r in 0..=ids.len() + 1 {
            let expected: Vec<u64> = sorted.iter().take(r).map(|&(_, id)| id).collect();
            assert_eq!(
                rendezvous_top(&key, ids.iter().copied(), r),
                expected,
                "r={r}"
            );
        }
    }

    /// The counters move as if every message went through `Sha256`:
    /// two compressions per lottery message, one per ranking.
    #[test]
    fn batched_hashing_counts_like_the_streaming_hasher() {
        // Left on: no other test in this binary reads the flag, and the
        // collector is per thread.
        ici_telemetry::set_enabled(true);
        let counts = |hash: &dyn Fn()| {
            ici_telemetry::reset();
            hash();
            let snap = ici_telemetry::snapshot();
            ["bytes", "compressions", "digests"].map(|name| {
                snap.counters
                    .iter()
                    .filter(|c| c.name == format!("crypto/sha256_{name}"))
                    .map(|c| c.value)
                    .sum::<u64>()
            })
        };
        let s = seed(1);
        for n in [0u64, 1, 5, 16] {
            let lottery = counts(&|| for_each_lottery_score(&s, 3, 0..n, |_, _| {}));
            let per_id = counts(&|| {
                for id in 0..n {
                    lottery_score(&s, 3, id);
                }
            });
            assert_eq!(lottery, [63 * n, 2 * n, n], "n={n}");
            assert_eq!(lottery, per_id, "n={n}");
            let ranking = counts(&|| for_each_rendezvous_rank(&s, 0..n, |_, _| {}));
            let per_id = counts(&|| {
                for id in 0..n {
                    rendezvous_rank(&s, id);
                }
            });
            assert_eq!(ranking, [51 * n, n, n], "n={n}");
            assert_eq!(ranking, per_id, "n={n}");
        }
    }

    #[test]
    fn scores_are_deterministic() {
        assert_eq!(
            lottery_score(&seed(1), 5, 42),
            lottery_score(&seed(1), 5, 42)
        );
    }

    #[test]
    fn scores_vary_with_every_input() {
        let base = lottery_score(&seed(1), 5, 42);
        assert_ne!(base, lottery_score(&seed(2), 5, 42));
        assert_ne!(base, lottery_score(&seed(1), 6, 42));
        assert_ne!(base, lottery_score(&seed(1), 5, 43));
    }

    #[test]
    fn winner_is_min_score() {
        let s = seed(9);
        let ids = [3u64, 11, 17, 29];
        let expect = ids
            .iter()
            .copied()
            .min_by_key(|id| (lottery_score(&s, 0, *id), *id))
            .expect("non-empty");
        assert_eq!(lottery_winner(&s, 0, ids), Some(expect));
    }

    #[test]
    fn winner_of_empty_set_is_none() {
        assert_eq!(lottery_winner(&seed(0), 0, std::iter::empty()), None);
    }

    #[test]
    fn leadership_rotates_over_rounds() {
        // With 8 candidates and 64 rounds, a single fixed winner would mean
        // the lottery is broken.
        let s = seed(4);
        let ids: Vec<u64> = (0..8).collect();
        let winners: std::collections::HashSet<u64> = (0..64)
            .map(|round| lottery_winner(&s, round, ids.iter().copied()).expect("non-empty"))
            .collect();
        assert!(winners.len() > 3, "only {} distinct leaders", winners.len());
    }

    #[test]
    fn rendezvous_top_is_stable_subset_under_membership_growth() {
        let key = seed(7);
        let small: Vec<u64> = (0..10).collect();
        let large: Vec<u64> = (0..11).collect();
        let before = rendezvous_top(&key, small.iter().copied(), 3);
        let after = rendezvous_top(&key, large.iter().copied(), 3);
        // Adding one node changes at most one owner.
        let moved = before.iter().filter(|id| !after.contains(id)).count();
        assert!(moved <= 1, "adding a node moved {moved} owners");
    }

    #[test]
    fn rendezvous_top_returns_distinct_nodes_in_weight_order() {
        let key = seed(3);
        let top = rendezvous_top(&key, 0..20u64, 5);
        assert_eq!(top.len(), 5);
        let unique: std::collections::HashSet<&u64> = top.iter().collect();
        assert_eq!(unique.len(), 5);
        for pair in top.windows(2) {
            assert!(rendezvous_rank(&key, pair[0]) >= rendezvous_rank(&key, pair[1]));
        }
    }

    #[test]
    fn rendezvous_top_handles_small_candidate_sets() {
        let key = seed(5);
        assert_eq!(rendezvous_top(&key, 0..2u64, 5).len(), 2);
        assert!(rendezvous_top(&key, std::iter::empty(), 3).is_empty());
    }

    #[test]
    fn rendezvous_spreads_keys_roughly_evenly() {
        // 1000 keys over 10 nodes with r=1: each node should own a
        // non-degenerate share (loose bound, deterministic inputs).
        let nodes: Vec<u64> = (0..10).collect();
        let mut counts = vec![0usize; 10];
        for k in 0..1000u32 {
            let key = Sha256::digest(&k.to_be_bytes());
            let owner = rendezvous_top(&key, nodes.iter().copied(), 1)[0];
            counts[owner as usize] += 1;
        }
        for (node, count) in counts.iter().enumerate() {
            assert!(
                (40..=250).contains(count),
                "node {node} owns {count} of 1000 keys"
            );
        }
    }
}

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
//! candidate set, and [`for_each_rendezvous_key`] one node's weights
//! under many keys (a joiner at every height), [`WIDE`] messages per
//! call of the sixteen-lane batch entry the rest of the block path
//! uses, with each message laid out in place (no streaming hasher, no
//! allocation). Every protocol caller goes through them.

use crate::sha256::{compress_blocks, count_digests, digest16, Digest, Sha256, H0, WIDE};

/// Domain tag of [`lottery_score`].
const LOTTERY_DOMAIN: &[u8; 15] = b"ici-lottery-v1:";
/// Domain tag of [`rendezvous_rank`].
const HRW_DOMAIN: &[u8; 11] = b"ici-hrw-v1:";
/// Counter of rendezvous weights computed, per id or batched.
const RANKS: &str = "crypto/rendezvous_ranks";

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
/// in order, hashing [`WIDE`] ids per batch call.
///
/// The 63-byte message fills the first block up to the 0x80 pad byte,
/// so the second block holds only the length, the same for every
/// participant.
pub fn for_each_lottery_score<I>(seed: &Digest, round: u64, ids: I, mut f: impl FnMut(u64, u64))
where
    I: IntoIterator<Item = u64>,
{
    let mut message = [[0u8; 64]; 2];
    let [first, length] = &mut message;
    first[..15].copy_from_slice(LOTTERY_DOMAIN);
    first[15..47].copy_from_slice(seed.as_bytes());
    first[47..55].copy_from_slice(&round.to_be_bytes());
    first[LOTTERY_LEN] = 0x80;
    length[56..].copy_from_slice(&(LOTTERY_LEN as u64 * 8).to_be_bytes());
    let ids = ids.into_iter().map(u64::to_be_bytes);
    for_each_prefix(ids, &message, 55, LOTTERY_LEN as u64, |id, score| {
        f(u64::from_be_bytes(id), score)
    });
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
    ici_telemetry::counter_add(RANKS, ici_telemetry::Label::Global, 1);
    let mut h = Sha256::new();
    h.update(HRW_DOMAIN);
    h.update(key.as_bytes());
    h.update(&node.to_be_bytes());
    h.finalize().prefix_u64()
}

/// Calls `f(id, rendezvous_rank(key, id))` for every id of `ids`, in
/// order, hashing [`WIDE`] ids per batch call. The 51-byte message and
/// its padding fit one block.
pub fn for_each_rendezvous_rank<I>(key: &Digest, ids: I, mut f: impl FnMut(u64, u64))
where
    I: IntoIterator<Item = u64>,
{
    let mut block = hrw_block();
    block[11..43].copy_from_slice(key.as_bytes());
    let ids = ids.into_iter().map(u64::to_be_bytes);
    let ranked = for_each_prefix(ids, &[block], 43, HRW_LEN as u64, |id, rank| {
        f(u64::from_be_bytes(id), rank)
    });
    ici_telemetry::counter_add(RANKS, ici_telemetry::Label::Global, ranked);
}

/// Calls `f(key, rendezvous_rank(key, node))` for every key of `keys`,
/// in order: [`for_each_rendezvous_rank`] with the node fixed and the
/// key varying (one node's weight at many heights, as a join ranks its
/// joiner), [`WIDE`] keys per batch call.
pub fn for_each_rendezvous_key<I>(node: u64, keys: I, mut f: impl FnMut(Digest, u64))
where
    I: IntoIterator<Item = Digest>,
{
    let mut block = hrw_block();
    block[43..HRW_LEN].copy_from_slice(&node.to_be_bytes());
    let keys = keys.into_iter().map(|key| *key.as_bytes());
    let ranked = for_each_prefix(keys, &[block], 11, HRW_LEN as u64, |key, rank| {
        f(Digest::from_bytes(key), rank)
    });
    ici_telemetry::counter_add(RANKS, ici_telemetry::Label::Global, ranked);
}

/// A ranking message's one block, padded, with the domain in place and
/// the key (11..43) and node (43..51) still to be written.
fn hrw_block() -> [u8; 64] {
    let mut block = [0u8; 64];
    block[..11].copy_from_slice(HRW_DOMAIN);
    block[HRW_LEN] = 0x80;
    block[56..].copy_from_slice(&(HRW_LEN as u64 * 8).to_be_bytes());
    block
}

/// Inserts `(rank, id)` into `top[..len]`, a best-first ranking held in
/// `top`: higher rank first, ties to the smaller id. The pair goes in
/// if it ranks within `top.len()`; the pairs after it shift down one,
/// and when `len` is already `top.len()` the last one falls off.
/// Returns the ranking's new length. Every top-`r` ranking keeps this
/// one order: [`rendezvous_top`], and a caller that keeps its top
/// pairs and merges a newcomer into them in place.
#[inline]
pub fn insert_top(top: &mut [(u64, u64)], len: usize, rank: u64, id: u64) -> usize {
    let at = top[..len].partition_point(|&(w, n)| w > rank || (w == rank && n <= id));
    if at == top.len() {
        return len;
    }
    let len = (len + 1).min(top.len());
    top[at..len].rotate_right(1);
    top[at] = (rank, id);
    len
}

/// Returns the `r` nodes with the highest rendezvous weight for `key`,
/// ordered best-first. If fewer than `r` candidates exist, all are returned.
pub fn rendezvous_top<I>(key: &Digest, candidates: I, r: usize) -> Vec<u64>
where
    I: IntoIterator<Item = u64>,
{
    let candidates = candidates.into_iter();
    // Kept sorted, never longer than `r`: a slot is pushed while it is
    // shorter, for `insert_top` to fill.
    let mut top: Vec<(u64, u64)> = Vec::with_capacity(r.min(candidates.size_hint().0));
    for_each_rendezvous_rank(key, candidates, |id, rank| {
        let len = top.len();
        if len < r {
            top.push((rank, id));
        }
        insert_top(&mut top, len, rank, id);
    });
    top.into_iter().map(|(_, id)| id).collect()
}

/// The batch driver under the `for_each_*` functions: `template` is
/// every message, padded, with an item's `N` bytes (an id, big-endian,
/// or a key) still to go at `at` of its first block. Items are staged
/// [`WIDE`] at a time, and each full group goes through one
/// [`digest16`] call: the sixteen messages are laid out from `template`
/// when the first group fills, and later groups rewrite only the item
/// bytes. A short final group is hashed one item at a time. `f` sees
/// `(item, digest prefix)` in input order. Full groups count in
/// `digest16`, the stragglers here, so the three `crypto/sha256_*`
/// counters move by what hashing each `message_len`-byte message
/// through [`Sha256`] would have added. Returns how many items were
/// hashed.
fn for_each_prefix<I, const B: usize, const N: usize>(
    items: I,
    template: &[[u8; 64]; B],
    at: usize,
    message_len: u64,
    mut f: impl FnMut([u8; N], u64),
) -> u64
where
    I: IntoIterator<Item = [u8; N]>,
{
    let mut staged = [[0u8; N]; WIDE];
    let mut messages = None;
    let mut filled = 0;
    let mut hashed = 0u64;
    for item in items {
        staged[filled] = item;
        filled += 1;
        if filled < WIDE {
            continue;
        }
        let messages = messages.get_or_insert_with(|| [*template; WIDE]);
        for (message, item) in messages.iter_mut().zip(&staged) {
            message[0][at..at + N].copy_from_slice(item);
        }
        let lanes = messages.each_ref().map(|message| message.as_slice());
        let digests = digest16(lanes, WIDE as u64 * message_len, false);
        for (&item, digest) in staged.iter().zip(&digests) {
            f(item, digest.prefix_u64());
        }
        hashed += WIDE as u64;
        filled = 0;
    }
    if filled > 0 {
        let mut message = *template;
        for &item in &staged[..filled] {
            message[0][at..at + N].copy_from_slice(&item);
            let mut state = H0;
            compress_blocks(&mut state, &message);
            // The digest's first eight bytes are state words 0 and 1,
            // big-endian.
            f(item, (u64::from(state[0]) << 32) | u64::from(state[1]));
        }
        let stragglers = filled as u64;
        count_digests(stragglers, stragglers * message_len, stragglers * B as u64);
        hashed += stragglers;
    }
    hashed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed(tag: u8) -> Digest {
        Sha256::digest(&[tag])
    }

    /// The batched functions are the per-id specification, at every
    /// batch length from empty through three full groups and a short
    /// one, over ids at both ends of the range and repeated ids (and
    /// keys derived from them, for one node), on every kernel.
    #[test]
    fn batched_scores_match_the_per_id_functions() {
        let pool = [0, u64::MAX, 7, 7, 1 << 32, u64::MAX, 0, 12_345_678_901];
        crate::sha256::under_every_kernel(|kernel| {
            for len in 0..=3 * WIDE + 1 {
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

                    let keys: Vec<Digest> = ids.iter().map(|&id| seed(id as u8)).collect();
                    let node = ids.first().map_or(round, |&id| id ^ round);
                    let mut got = Vec::new();
                    for_each_rendezvous_key(node, keys.iter().copied(), |key, rank| {
                        got.push((key, rank));
                    });
                    let expected: Vec<(Digest, u64)> = keys
                        .iter()
                        .map(|&key| (key, rendezvous_rank(&key, node)))
                        .collect();
                    assert_eq!(got, expected, "keys, kernel {kernel}, len {len}");
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
    /// two compressions per lottery message, one per ranking. Each
    /// ranking, per id or batched, also counts one rendezvous rank.
    #[test]
    fn batched_hashing_counts_like_the_streaming_hasher() {
        // Left on: no other test in this binary reads the flag, and the
        // collector is per thread.
        ici_telemetry::set_enabled(true);
        let counts = |hash: &dyn Fn()| {
            ici_telemetry::reset();
            hash();
            let snap = ici_telemetry::snapshot();
            [
                "crypto/sha256_bytes",
                "crypto/sha256_compressions",
                "crypto/sha256_digests",
                RANKS,
            ]
            .map(|name| {
                snap.counters
                    .iter()
                    .filter(|c| c.name == name)
                    .map(|c| c.value)
                    .sum::<u64>()
            })
        };
        let s = seed(1);
        for n in [0u64, 1, 5, 16, 33] {
            let lottery = counts(&|| for_each_lottery_score(&s, 3, 0..n, |_, _| {}));
            let per_id = counts(&|| {
                for id in 0..n {
                    lottery_score(&s, 3, id);
                }
            });
            assert_eq!(lottery, [63 * n, 2 * n, n, 0], "n={n}");
            assert_eq!(lottery, per_id, "n={n}");
            let ranking = counts(&|| for_each_rendezvous_rank(&s, 0..n, |_, _| {}));
            let per_id = counts(&|| {
                for id in 0..n {
                    rendezvous_rank(&s, id);
                }
            });
            assert_eq!(ranking, [51 * n, n, n, n], "n={n}");
            assert_eq!(ranking, per_id, "n={n}");
        }
    }

    /// A newcomer merged into a kept top-`r` with `insert_top` gives the
    /// top-`r` of the grown set, whether the kept ranking was full or
    /// shorter than `r`, and the newcomer ranks anywhere.
    #[test]
    fn merging_a_newcomer_is_ranking_the_grown_set() {
        for k in 0..40u8 {
            let key = seed(k);
            for members in 0..6u64 {
                for r in 0..=members as usize + 2 {
                    let mut top = vec![(0, 0); r];
                    let mut len = 0;
                    for_each_rendezvous_rank(&key, 0..members, |id, rank| {
                        len = insert_top(&mut top, len, rank, id);
                    });
                    assert_eq!(len, r.min(members as usize));
                    len = insert_top(&mut top, len, rendezvous_rank(&key, members), members);
                    let merged: Vec<u64> = top[..len].iter().map(|&(_, id)| id).collect();
                    assert_eq!(
                        merged,
                        rendezvous_top(&key, 0..=members, r),
                        "key {k}, {members} members, r={r}"
                    );
                }
            }
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

//! Intra-cluster integrity auditing.
//!
//! The defining invariant of ICIStrategy is **intra-cluster integrity**:
//! every cluster, as a set, holds every block of the chain. This module
//! checks that invariant over a snapshot of who-holds-what and reports how
//! much replication slack each height has — the input to the availability
//! experiment (E6).
//!
//! Holdings are bit sets over heights ([`HeightSet`]), and everything that
//! asks "how many live members hold height `h`" — this audit, the recovery
//! planner, the core's Merkle certificate — reads one [`ReplicaCount`]:
//! the live members' words added 64 heights at a time.

use std::collections::{BTreeMap, BTreeSet};

use ici_chain::block::Height;
use ici_net::node::NodeId;

/// A set of chain heights, one bit per height.
///
/// Heights are dense from genesis, so the words cover `0..=highest height
/// ever inserted` and memory is an eighth of a byte per height of chain,
/// whoever holds what. Iteration is ascending; equality is by contents,
/// not by how many words are allocated.
#[derive(Clone, Debug, Default)]
pub struct HeightSet {
    words: Vec<u64>,
    len: usize,
}

impl HeightSet {
    /// The empty set.
    pub const fn new() -> HeightSet {
        HeightSet {
            words: Vec::new(),
            len: 0,
        }
    }

    fn from_words(words: Vec<u64>) -> HeightSet {
        let len = words.iter().map(|w| w.count_ones() as usize).sum(); // ≤ 64 a word
        HeightSet { words, len }
    }

    fn locate(height: Height) -> (usize, u64) {
        ((height / 64) as usize, 1u64 << (height % 64)) // word index bounded by memory
    }

    /// Whether `height` is in the set. Heights beyond the last stored word
    /// are simply absent.
    pub fn contains(&self, height: &Height) -> bool {
        let (word, bit) = HeightSet::locate(*height);
        self.words.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Adds `height`, growing the words to cover it. Returns whether it
    /// was new.
    pub fn insert(&mut self, height: Height) -> bool {
        let (word, bit) = HeightSet::locate(height);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let new = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.len += usize::from(new);
        new
    }

    /// Removes `height`. Returns whether it was present.
    pub fn remove(&mut self, height: &Height) -> bool {
        let (word, bit) = HeightSet::locate(*height);
        let Some(w) = self.words.get_mut(word) else {
            return false;
        };
        let present = *w & bit != 0;
        *w &= !bit;
        self.len -= usize::from(present);
        present
    }

    /// Number of heights in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no height.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the set, keeping its words allocated.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// The heights, ascending.
    pub fn iter(&self) -> impl Iterator<Item = Height> + '_ {
        self.words
            .iter()
            .zip((0..).step_by(64))
            .flat_map(|(&word, base)| {
                // Peel the lowest set bit until none is left.
                std::iter::successors((word != 0).then_some(word), |rest| {
                    let rest = rest & (rest - 1);
                    (rest != 0).then_some(rest)
                })
                .map(move |rest| base + Height::from(rest.trailing_zeros()))
            })
    }
}

impl PartialEq for HeightSet {
    fn eq(&self, other: &HeightSet) -> bool {
        // Equal sizes and an equal common prefix leave no bit for the
        // longer side's extra words.
        self.len == other.len && self.words.iter().zip(&other.words).all(|(a, b)| a == b)
    }
}

impl Eq for HeightSet {}

impl Extend<Height> for HeightSet {
    fn extend<I: IntoIterator<Item = Height>>(&mut self, heights: I) {
        for height in heights {
            self.insert(height);
        }
    }
}

impl FromIterator<Height> for HeightSet {
    fn from_iter<I: IntoIterator<Item = Height>>(heights: I) -> HeightSet {
        let mut set = HeightSet::new();
        set.extend(heights);
        set
    }
}

/// Snapshot of body holdings inside one cluster: node → heights held.
pub type Holdings = BTreeMap<NodeId, HeightSet>;

/// How many live members hold each height of `0..chain_len`, for all
/// heights at once.
///
/// The counts are bit-sliced: plane `k` holds bit `k` of every height's
/// count, laid out like a [`HeightSet`]'s words, so adding one member is
/// a ripple-carry add of its words into the planes — 64 heights per
/// machine word — and "held by nobody", "held exactly once" or "below
/// the replication target" are a few word operations per 64 heights.
/// `⌈log₂(members + 1)⌉` planes: five for a 16-member cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaCount {
    chain_len: Height,
    planes: Vec<Vec<u64>>,
}

impl ReplicaCount {
    /// Counts the replicas in `live` — one [`HeightSet`] per live member —
    /// over heights `0..chain_len`. Heights at or past `chain_len` are
    /// ignored.
    pub fn of<'a>(
        live: impl IntoIterator<Item = &'a HeightSet>,
        chain_len: Height,
    ) -> ReplicaCount {
        let mut count = ReplicaCount {
            chain_len,
            planes: Vec::new(),
        };
        let words = count.words();
        for set in live {
            for (w, &held) in set.words.iter().take(words).enumerate() {
                let mut carry = held & count.in_chain(w);
                for plane in &mut count.planes {
                    if carry == 0 {
                        break;
                    }
                    let sum = plane[w] ^ carry;
                    carry &= plane[w];
                    plane[w] = sum;
                }
                if carry != 0 {
                    let mut plane = vec![0; words];
                    plane[w] = carry;
                    count.planes.push(plane);
                }
            }
        }
        count
    }

    /// Words per plane.
    fn words(&self) -> usize {
        self.chain_len.div_ceil(64) as usize // bounded by memory
    }

    /// The bits of word `w` that stand for heights below `chain_len`.
    fn in_chain(&self, w: usize) -> u64 {
        let tail = self.chain_len % 64;
        if tail != 0 && w + 1 == self.words() {
            (1u64 << tail) - 1
        } else {
            u64::MAX
        }
    }

    /// Live replicas of `height`; 0 at or past `chain_len`.
    pub fn count(&self, height: Height) -> usize {
        if height >= self.chain_len {
            return 0;
        }
        let (word, bit) = HeightSet::locate(height);
        self.planes
            .iter()
            .enumerate()
            .filter(|(_, plane)| plane[word] & bit != 0)
            .map(|(k, _)| 1usize << k)
            .sum()
    }

    /// Live replicas over all heights.
    pub fn replicas(&self) -> usize {
        self.planes
            .iter()
            .enumerate()
            .map(|(k, plane)| plane.iter().map(|w| w.count_ones() as usize).sum::<usize>() << k)
            .sum()
    }

    /// Word by word, the heights held by exactly `n` live members.
    fn words_with_count(&self, n: usize) -> impl Iterator<Item = u64> + '_ {
        let representable = n >> self.planes.len() == 0;
        (0..self.words()).map(move |w| {
            if !representable {
                return 0;
            }
            self.planes
                .iter()
                .enumerate()
                .fold(self.in_chain(w), |eq, (k, plane)| {
                    eq & if n >> k & 1 == 1 { plane[w] } else { !plane[w] }
                })
        })
    }

    /// The heights held by exactly `n` live members; `with_count(0)` are
    /// the heights the cluster has lost.
    pub fn with_count(&self, n: usize) -> HeightSet {
        HeightSet::from_words(self.words_with_count(n).collect())
    }

    /// The heights held by fewer than `target` live members.
    pub fn below(&self, target: usize) -> HeightSet {
        let representable = target >> self.planes.len() == 0;
        let words = (0..self.words()).map(|w| {
            if !representable {
                return self.in_chain(w); // no count reaches `target`
            }
            // Compare from the top plane down: a height is below once
            // its count has a 0 where `target` has a 1, all higher bits
            // being equal.
            let (mut lt, mut eq) = (0u64, u64::MAX);
            for (k, plane) in self.planes.iter().enumerate().rev() {
                if target >> k & 1 == 1 {
                    lt |= eq & !plane[w];
                    eq &= plane[w];
                } else {
                    eq &= !plane[w];
                }
            }
            lt & self.in_chain(w)
        });
        HeightSet::from_words(words.collect())
    }

    /// The integrity report these counts amount to.
    pub fn report(&self) -> IntegrityReport {
        let mut replication_histogram = BTreeMap::new();
        for n in 0..1usize << self.planes.len() {
            let heights: u64 = self
                .words_with_count(n)
                .map(|w| u64::from(w.count_ones()))
                .sum();
            if heights > 0 {
                replication_histogram.insert(n, heights);
            }
        }
        IntegrityReport {
            chain_len: self.chain_len,
            missing: self.with_count(0).iter().collect(),
            singly_held: self.with_count(1).iter().collect(),
            replication_histogram,
        }
    }
}

/// Result of an integrity audit over one cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntegrityReport {
    /// Chain length audited against (heights `0..chain_len`).
    pub chain_len: Height,
    /// Heights held by no live member — integrity violations.
    pub missing: Vec<Height>,
    /// Heights held by exactly one live member (no failure slack).
    pub singly_held: Vec<Height>,
    /// Histogram: live replica count → number of heights.
    pub replication_histogram: BTreeMap<usize, u64>,
}

impl IntegrityReport {
    /// Whether the cluster satisfies intra-cluster integrity.
    pub fn is_intact(&self) -> bool {
        self.missing.is_empty()
    }

    /// Fraction of heights still available, in `[0, 1]`.
    pub fn availability(&self) -> f64 {
        if self.chain_len == 0 {
            return 1.0;
        }
        1.0 - self.missing.len() as f64 / self.chain_len as f64
    }
}

/// Audits one cluster: which of heights `0..chain_len` are held by live
/// members, and with how many replicas.
///
/// `live` filters `holdings`; a crashed member's copies do not count.
pub fn audit_cluster(
    holdings: &Holdings,
    live: &BTreeSet<NodeId>,
    chain_len: Height,
) -> IntegrityReport {
    let live_sets = holdings
        .iter()
        .filter(|(node, _)| live.contains(node))
        .map(|(_, heights)| heights);
    audit_replicas(live_sets, chain_len)
}

/// [`audit_cluster`] over borrowed holdings: `live` is one [`HeightSet`]
/// per live member, and nothing is copied.
pub fn audit_replicas<'a>(
    live: impl IntoIterator<Item = &'a HeightSet>,
    chain_len: Height,
) -> IntegrityReport {
    let _span = ici_telemetry::span!("storage/audit_cluster");
    ReplicaCount::of(live, chain_len).report()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn holdings(entries: &[(u64, &[Height])]) -> Holdings {
        entries
            .iter()
            .map(|(node, heights)| (NodeId::new(*node), heights.iter().copied().collect()))
            .collect()
    }

    fn live(ids: &[u64]) -> BTreeSet<NodeId> {
        ids.iter().map(|i| NodeId::new(*i)).collect()
    }

    #[test]
    fn height_set_is_a_set_of_heights() {
        let mut set = HeightSet::new();
        assert!(!set.remove(&70), "removing from no words is a no-op");
        assert!(set.insert(70) && !set.insert(70));
        assert!(set.insert(3) && set.insert(64));
        assert!(
            set.contains(&70) && !set.contains(&6),
            "same bit, other word"
        );
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 64, 70]);
        assert!(set.remove(&70) && !set.remove(&70));
        assert_eq!(set.len(), 2);
        // Contents, not capacity: one side still has its second word.
        assert!(set.remove(&64));
        assert_eq!(set, [3].into_iter().collect());
        set.clear();
        assert!(set.is_empty() && set == HeightSet::new());
    }

    #[test]
    fn replica_count_adds_members_64_heights_at_a_time() {
        // Height 5 held by all 70 members (seven planes), 64 by two,
        // 65 by one, 200 past the chain.
        let mut sets: Vec<HeightSet> = (0..70).map(|_| [5].into_iter().collect()).collect();
        sets[0].extend([64, 65, 200]);
        sets[1].insert(64);
        let count = ReplicaCount::of(&sets, 130);
        assert_eq!(
            (
                count.count(5),
                count.count(64),
                count.count(65),
                count.count(200)
            ),
            (70, 2, 1, 0)
        );
        assert_eq!(count.replicas(), 73);
        assert_eq!(count.with_count(70).iter().collect::<Vec<_>>(), vec![5]);
        assert_eq!(count.with_count(0).len(), 127);
        assert_eq!(count.below(3).len(), 129);
        assert_eq!(count.below(2).iter().last(), Some(129));
        assert_eq!(count.below(1_000).len(), 130);
        assert_eq!(count.report().replication_histogram[&70], 1);
    }

    #[test]
    fn intact_cluster_reports_clean() {
        let h = holdings(&[(0, &[0, 1]), (1, &[2, 3]), (2, &[0, 2])]);
        let report = audit_cluster(&h, &live(&[0, 1, 2]), 4);
        assert!(report.is_intact());
        assert_eq!(report.availability(), 1.0);
        assert_eq!(report.singly_held, vec![1, 3]);
        assert_eq!(report.replication_histogram[&1], 2);
        assert_eq!(report.replication_histogram[&2], 2);
    }

    #[test]
    fn missing_heights_are_found() {
        let h = holdings(&[(0, &[0]), (1, &[2])]);
        let report = audit_cluster(&h, &live(&[0, 1]), 4);
        assert!(!report.is_intact());
        assert_eq!(report.missing, vec![1, 3]);
        assert_eq!(report.availability(), 0.5);
    }

    #[test]
    fn dead_members_do_not_count() {
        let h = holdings(&[(0, &[0, 1]), (1, &[0, 1])]);
        let report = audit_cluster(&h, &live(&[1]), 2);
        assert!(report.is_intact());
        assert_eq!(report.singly_held, vec![0, 1]);

        let report = audit_cluster(&h, &live(&[]), 2);
        assert_eq!(report.missing, vec![0, 1]);
        assert_eq!(report.availability(), 0.0);
    }

    #[test]
    fn heights_beyond_chain_len_ignored() {
        let h = holdings(&[(0, &[0, 99])]);
        let report = audit_cluster(&h, &live(&[0]), 1);
        assert!(report.is_intact());
        assert_eq!(report.chain_len, 1);
    }

    #[test]
    fn empty_chain_is_trivially_available() {
        let report = audit_cluster(&Holdings::new(), &live(&[]), 0);
        assert!(report.is_intact());
        assert_eq!(report.availability(), 1.0);
    }
}

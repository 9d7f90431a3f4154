//! The crashed-node set behind [`Network`](crate::network::Network).
//!
//! Every send asks twice whether an endpoint is up, so membership is one
//! bit per node id: a shift, a mask and a load, with no hashing. Ids are
//! dense from zero, so the words cover `0..=highest crashed id` and the
//! whole set for a thousand-node network is two cache lines.

use crate::node::NodeId;

/// A set of crashed node ids, one bit per id.
#[derive(Clone, Debug, Default)]
pub(crate) struct DownSet {
    words: Vec<u64>,
    count: usize,
}

impl DownSet {
    fn locate(node: NodeId) -> (usize, u64) {
        (node.index() / 64, 1u64 << (node.index() % 64))
    }

    /// Whether `node` is in the set. Ids beyond the last stored word are
    /// simply absent.
    pub(crate) fn contains(&self, node: NodeId) -> bool {
        let (word, bit) = DownSet::locate(node);
        self.words.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Adds `node` (idempotent), growing the words to cover its id.
    pub(crate) fn insert(&mut self, node: NodeId) {
        let (word, bit) = DownSet::locate(node);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.count += 1;
        }
    }

    /// Removes `node` (idempotent).
    pub(crate) fn remove(&mut self, node: NodeId) {
        let (word, bit) = DownSet::locate(node);
        if let Some(w) = self.words.get_mut(word) {
            if *w & bit != 0 {
                *w &= !bit;
                self.count -= 1;
            }
        }
    }

    /// Number of ids in the set.
    pub(crate) fn len(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_prop::{check, Config};
    use std::collections::HashSet;

    /// One step of the model run: `(crash?, id)`.
    type Step = (bool, u64);

    /// Random crash/recover sequences against `HashSet`, the set the
    /// bits replaced: same membership for every id (including ids past
    /// anything ever inserted) and the same size after every step.
    #[test]
    fn bit_set_agrees_with_a_hash_set_model() {
        let result = check(
            "down-set matches HashSet",
            &Config {
                seed: 0xD057,
                cases: 64,
                ..Config::default()
            },
            |rng| {
                let len = rng.gen_range(0usize..80);
                (0..len)
                    .map(|_| (rng.gen_range(0u64..3) != 0, rng.gen_range(0u64..200)))
                    .collect::<Vec<Step>>()
            },
            |steps: &Vec<Step>| {
                let mut bits = DownSet::default();
                let mut model: HashSet<u64> = HashSet::new();
                for &(crash, id) in steps {
                    if crash {
                        bits.insert(NodeId::new(id));
                        model.insert(id);
                    } else {
                        bits.remove(NodeId::new(id));
                        model.remove(&id);
                    }
                    if bits.len() != model.len() {
                        return Err(format!("len {} vs model {}", bits.len(), model.len()));
                    }
                }
                for id in 0..300 {
                    if bits.contains(NodeId::new(id)) != model.contains(&id) {
                        return Err(format!("membership of {id} differs"));
                    }
                }
                Ok(())
            },
        );
        if let Err(failure) = result {
            panic!("{failure}");
        }
    }

    #[test]
    fn insert_and_remove_are_idempotent() {
        let mut set = DownSet::default();
        let node = NodeId::new(70);
        set.remove(node);
        assert_eq!(set.len(), 0);
        set.insert(node);
        set.insert(node);
        assert_eq!(set.len(), 1);
        assert!(set.contains(node));
        assert!(!set.contains(NodeId::new(6)), "same bit, other word");
        set.remove(node);
        set.remove(node);
        assert_eq!(set.len(), 0);
        assert!(!set.contains(node));
    }
}

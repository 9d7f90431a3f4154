//! Verdict aggregation under Byzantine verifiers.
//!
//! Collaborative verification (ICIStrategy §III) splits a block's
//! signature checks across a cluster and has each member report a
//! verdict. With only crash faults a single honest verdict settles the
//! block; once verifiers may *lie* (ContribChain's malicious-verdict
//! actors) or go silent, the cluster must aggregate verdicts with the
//! same quorum arithmetic PBFT uses for votes: a block is accepted or
//! rejected only when a full quorum of members says so, and anything
//! short of that is a stall, never a commit.
//!
//! The aggregation is deliberately symmetric: since
//! `2·quorum(n) > n`, at most one side can ever reach quorum, so
//! [`VerdictOutcome`] is well defined without tie-break rules — an exact
//! tie (possible when `n` is even and nobody withholds) simply stalls.

use crate::quorum::quorum;

/// What one verifier reports for a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifierVote {
    /// The verifier's checks passed and it says so.
    Accept,
    /// The verifier reports a failure (honestly or not).
    Reject,
    /// The verifier reports nothing (withholding or crashed mid-round).
    Withhold,
}

/// Vote counts for one cluster's verdict round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerdictTally {
    /// Members reporting `Accept`.
    pub accepts: usize,
    /// Members reporting `Reject`.
    pub rejects: usize,
    /// Members reporting nothing.
    pub withheld: usize,
    /// Size of the voting group the quorum is computed over.
    pub members: usize,
}

/// The cluster-level decision a tally supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerdictOutcome {
    /// A quorum of members accepted: the block commits.
    Accepted,
    /// A quorum of members rejected: the block is discarded.
    Rejected,
    /// Neither side reached quorum (ties, heavy withholding, or a split
    /// cluster): the round stalls and the proposer must retry.
    Stalled,
}

/// Tallies an iterator of votes over a group of `members`.
///
/// Votes beyond `members` still count — callers are expected to pass one
/// vote per member, but the tally does not police it (the outcome logic
/// is what enforces quorums).
pub fn tally_votes<I>(votes: I, members: usize) -> VerdictTally
where
    I: IntoIterator<Item = VerifierVote>,
{
    let mut tally = VerdictTally {
        members,
        ..VerdictTally::default()
    };
    for vote in votes {
        match vote {
            VerifierVote::Accept => tally.accepts += 1,
            VerifierVote::Reject => tally.rejects += 1,
            VerifierVote::Withhold => tally.withheld += 1,
        }
    }
    tally
}

impl VerdictTally {
    /// The decision this tally supports.
    ///
    /// At most one of accept/reject can reach quorum because
    /// `2·quorum(n) > n`; an empty group stalls (there is nobody to
    /// commit anything).
    pub fn outcome(&self) -> VerdictOutcome {
        if self.members == 0 {
            return VerdictOutcome::Stalled;
        }
        let q = quorum(self.members);
        if self.accepts >= q {
            VerdictOutcome::Accepted
        } else if self.rejects >= q {
            VerdictOutcome::Rejected
        } else {
            VerdictOutcome::Stalled
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn votes(accepts: usize, rejects: usize, withheld: usize) -> VerdictTally {
        let all = std::iter::repeat(VerifierVote::Accept)
            .take(accepts)
            .chain(std::iter::repeat(VerifierVote::Reject).take(rejects))
            .chain(std::iter::repeat(VerifierVote::Withhold).take(withheld));
        tally_votes(all, accepts + rejects + withheld)
    }

    #[test]
    fn quorum_exactly_at_threshold_commits() {
        // n = 10 ⇒ f = 3, q = 7: exactly 7 accepts commit.
        assert_eq!(quorum(10), 7);
        assert_eq!(votes(7, 3, 0).outcome(), VerdictOutcome::Accepted);
        assert_eq!(votes(7, 0, 3).outcome(), VerdictOutcome::Accepted);
    }

    #[test]
    fn one_below_threshold_stalls() {
        // 6 accepts out of 10 is one short of q = 7 — never a commit,
        // even though accepts outnumber rejects.
        assert_eq!(votes(6, 4, 0).outcome(), VerdictOutcome::Stalled);
        assert_eq!(votes(6, 0, 4).outcome(), VerdictOutcome::Stalled);
    }

    #[test]
    fn all_false_verdict_cluster_rejects_but_never_forges_a_commit() {
        // Every member lies `Reject` about a good block: the block is
        // (wrongly) rejected — a liveness failure — but the aggregation
        // can never be tricked into an `Accepted` without real accepts.
        assert_eq!(votes(0, 10, 0).outcome(), VerdictOutcome::Rejected);
        assert_eq!(votes(0, 10, 0).accepts, 0);
    }

    #[test]
    fn exact_ties_stall() {
        // Even group, no withholding, split down the middle: neither
        // side reaches quorum, so the round stalls rather than picking
        // a winner arbitrarily.
        for n in [2usize, 4, 6, 8, 10, 12] {
            let tally = votes(n / 2, n / 2, 0);
            assert_eq!(tally.outcome(), VerdictOutcome::Stalled, "n={n}");
        }
    }

    #[test]
    fn withholding_heavy_rounds_stall() {
        // A silent majority cannot be read as consent.
        assert_eq!(votes(3, 0, 7).outcome(), VerdictOutcome::Stalled);
        assert_eq!(votes(0, 3, 7).outcome(), VerdictOutcome::Stalled);
        assert_eq!(votes(0, 0, 10).outcome(), VerdictOutcome::Stalled);
    }

    #[test]
    fn accept_and_reject_quorums_are_mutually_exclusive() {
        // 2q > n for every n, so no vote split can reach both quorums.
        for n in 1..100usize {
            let q = quorum(n);
            assert!(2 * q > n, "n={n} q={q}");
        }
    }

    #[test]
    fn degenerate_groups() {
        assert_eq!(votes(0, 0, 0).outcome(), VerdictOutcome::Stalled);
        // A singleton cluster is its own quorum.
        assert_eq!(votes(1, 0, 0).outcome(), VerdictOutcome::Accepted);
        assert_eq!(votes(0, 1, 0).outcome(), VerdictOutcome::Rejected);
    }

    #[test]
    fn extra_votes_count_toward_quorum_but_members_set_the_bar() {
        // The tally counts what it is given; quorum comes from `members`.
        let tally = tally_votes(std::iter::repeat(VerifierVote::Accept).take(5), 16);
        assert_eq!(tally.members, 16);
        assert_eq!(tally.outcome(), VerdictOutcome::Stalled);
    }
}

//! The recording scheduler driving the search: follows a prescribed
//! choice prefix, defaults afterwards, and records every decision the
//! kernel's gate lets through together with the DPOR-lite branch set
//! discovered there.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use simnet::sched::Decision;
use simnet::{Candidate, ChoicePoint, GateCfg, Scheduler};

use crate::relation::ConflictRelation;

/// Whether reordering `a` and `b` is observable (they *conflict*) under
/// the purely syntactic rule: both land on the same process, or ride
/// the same connection. Commuting pairs — independent processes,
/// independent connections — produce the same global state in either
/// order, so the explorer never branches on them. This is the
/// partial-order reduction that keeps the search bounded.
pub fn conflicts(a: &Candidate, b: &Candidate) -> bool {
    (a.target.is_some() && a.target == b.target) || (a.conn.is_some() && a.conn == b.conn)
}

/// [`conflicts`] refined by a statically derived [`ConflictRelation`]:
/// a same-target pair stops conflicting when the artifact proves the
/// two handler classes independent. The refinement only ever applies
/// to *simultaneous* candidates — dispatching the later of two
/// distinct-time candidates first models late delivery, and the clock
/// advance is itself observable (handler emissions carry timestamps) —
/// so distinct-time pairs always conflict, whatever the artifact says.
pub fn conflicts_under(relation: Option<&ConflictRelation>, a: &Candidate, b: &Candidate) -> bool {
    if a.conn.is_some() && a.conn == b.conn {
        return true;
    }
    if a.target.is_none() || a.target != b.target {
        return false;
    }
    let Some(relation) = relation else {
        return true;
    };
    if a.at != b.at {
        return true;
    }
    !relation.independent(a, b)
}

/// Everything one run teaches the explorer: the gated decisions that
/// were made, and — per decision — the alternative candidate indices
/// worth trying instead (eligible and conflicting with the pick).
#[derive(Clone, Debug, Default)]
pub struct RunRecord {
    /// Every gated decision, in ordinal order.
    pub decisions: Vec<Decision>,
    /// `branches[i]` lists the candidate indices at decision `i` that
    /// are eligible, differ from the pick, and conflict with it.
    pub branches: Vec<Vec<u64>>,
    /// `pruned[i]` lists the candidate indices at decision `i` that the
    /// syntactic rule would have branched on but the loaded
    /// [`ConflictRelation`] proved independent of the pick. Empty at
    /// every decision when no relation is loaded. The dynamic soundness
    /// cross-check replays these to validate the static claim.
    pub pruned: Vec<Vec<u64>>,
}

/// A [`Scheduler`] that plays a choice prefix, then the kernel default,
/// recording decisions and branch sets into a shared [`RunRecord`].
///
/// The scheduler is moved into the simulation, so the record is shared
/// via `Rc` and read back by the caller after the run completes.
#[derive(Clone, Debug)]
pub struct ExploreScheduler {
    gate: GateCfg,
    prefix: Vec<u64>,
    relation: Option<Arc<ConflictRelation>>,
    record: Rc<RefCell<RunRecord>>,
}

impl ExploreScheduler {
    /// A scheduler that asks the kernel for `gate` and picks `prefix[i]`
    /// at decision `i` (clamped exactly as the kernel clamps) and
    /// candidate 0 past the prefix, filling `record` as it goes. Branch
    /// sets use the syntactic [`conflicts`] rule.
    pub fn new(gate: GateCfg, prefix: Vec<u64>, record: Rc<RefCell<RunRecord>>) -> Self {
        Self::with_relation(gate, prefix, None, record)
    }

    /// [`new`](Self::new), with branch sets refined by a loaded
    /// conflict-relation artifact: alternatives the relation proves
    /// independent of the pick land in [`RunRecord::pruned`] instead of
    /// [`RunRecord::branches`], so the search never expands them.
    pub fn with_relation(
        gate: GateCfg,
        prefix: Vec<u64>,
        relation: Option<Arc<ConflictRelation>>,
        record: Rc<RefCell<RunRecord>>,
    ) -> Self {
        ExploreScheduler {
            gate,
            prefix,
            relation,
            record,
        }
    }
}

impl Scheduler for ExploreScheduler {
    fn choose(&mut self, cp: &ChoicePoint) -> usize {
        let want = self.prefix.get(cp.step as usize).copied().unwrap_or(0) as usize;
        // Mirror the kernel's clamp so the recorded pick is the
        // dispatched pick even when the prefix is stale for this branch
        // of the schedule tree.
        let chosen = match cp.candidates.get(want) {
            Some(c) if c.eligible => want,
            _ => 0,
        };
        let mut alternatives = Vec::new();
        let mut pruned = Vec::new();
        if let Some(picked) = cp.candidates.get(chosen) {
            for (i, c) in cp.candidates.iter().enumerate() {
                if i == chosen || !c.eligible || !conflicts(picked, c) {
                    continue;
                }
                if conflicts_under(self.relation.as_deref(), picked, c) {
                    alternatives.push(i as u64);
                } else {
                    pruned.push(i as u64);
                }
            }
        }
        let mut record = self.record.borrow_mut();
        record.decisions.push(Decision {
            step: cp.step,
            at_ns: cp.now.as_nanos(),
            n: cp.candidates.len() as u64,
            chosen: chosen as u64,
        });
        record.branches.push(alternatives);
        record.pruned.push(pruned);
        chosen
    }

    fn gate(&self) -> Option<GateCfg> {
        Some(self.gate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{IndependentPair, When};
    use simnet::sched::CandidateKind;
    use simnet::testkit::candidate;
    use simnet::SimTime;

    fn cand(target: u64, conn: Option<u64>, eligible: bool) -> Candidate {
        candidate(
            SimTime::from_nanos(100),
            target,
            CandidateKind::Notify,
            "data_readable",
            Some(target),
            conn,
            conn,
            eligible,
        )
    }

    fn twin_relation() -> Arc<ConflictRelation> {
        Arc::new(ConflictRelation {
            independent: vec![IndependentPair {
                a: "notify:data_readable".into(),
                b: "notify:data_readable".into(),
                when: When::SameTouchConn,
            }],
        })
    }

    #[test]
    fn conflict_is_same_target_or_same_conn() {
        assert!(conflicts(&cand(1, None, true), &cand(1, None, true)));
        assert!(conflicts(&cand(1, Some(7), true), &cand(2, Some(7), true)));
        assert!(!conflicts(&cand(1, Some(7), true), &cand(2, Some(8), true)));
        assert!(!conflicts(&cand(1, None, true), &cand(2, None, true)));
    }

    #[test]
    fn relation_refines_simultaneous_same_target_pairs_only() {
        let rel = twin_relation();
        let a = cand(1, None, true);
        let mut b = cand(1, None, true);
        // Same target, same instant, same touch_conn — wait, these
        // carry touch_conn = conn = None, so the qualifier fails.
        assert!(conflicts_under(Some(&rel), &a, &b));
        // With a shared touched connection the declared pair applies.
        let mut a2 = a.clone();
        a2.touch_conn = Some(simnet::testkit::conn_id(9));
        b.touch_conn = Some(simnet::testkit::conn_id(9));
        assert!(!conflicts_under(Some(&rel), &a2, &b));
        // Distinct dispatch times always conflict under a relation.
        let mut late = b.clone();
        late.at = SimTime::from_nanos(200);
        assert!(conflicts_under(Some(&rel), &a2, &late));
        // No relation loaded: the syntactic rule stands.
        assert!(conflicts_under(None, &a2, &b));
        // Different targets stay independent either way.
        assert!(!conflicts_under(Some(&rel), &a2, &cand(2, None, true)));
    }

    #[test]
    fn records_prefix_clamps_and_branches() {
        let record = Rc::new(RefCell::new(RunRecord::default()));
        let mut sched = ExploreScheduler::new(GateCfg::default(), vec![1, 9], Rc::clone(&record));
        let cp = |step: u64| ChoicePoint {
            step,
            now: SimTime::from_nanos(100),
            candidates: vec![
                cand(1, None, true),
                cand(1, None, true),
                cand(2, None, true),
                cand(1, Some(3), false),
            ],
        };
        // Decision 0: prefix says 1, candidate 1 is eligible -> taken.
        assert_eq!(sched.choose(&cp(0)), 1);
        // Decision 1: prefix says 9 (out of range) -> clamped to 0.
        assert_eq!(sched.choose(&cp(1)), 0);
        // Decision 2: past the prefix -> default 0.
        assert_eq!(sched.choose(&cp(2)), 0);
        let rec = record.borrow();
        assert_eq!(rec.decisions.len(), 3);
        assert_eq!(
            rec.decisions.iter().map(|d| d.step).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(rec.decisions[0].chosen, 1);
        assert_eq!(rec.decisions[1].chosen, 0);
        // Branches at decision 1 (picked candidate 0, target pid 1):
        // candidate 1 conflicts (same target), candidate 2 commutes
        // (different target, no conn), candidate 3 is ineligible.
        assert_eq!(rec.branches[1], vec![1]);
        // No relation loaded: nothing is ever pruned.
        assert!(rec.pruned.iter().all(|p| p.is_empty()));
    }

    #[test]
    fn relation_moves_independent_alternatives_to_pruned() {
        let record = Rc::new(RefCell::new(RunRecord::default()));
        let mut sched = ExploreScheduler::with_relation(
            GateCfg::default(),
            Vec::new(),
            Some(twin_relation()),
            Rc::clone(&record),
        );
        // Two parked re-drains of one connection's queue for the same
        // process at the same instant (the declared twin pair), plus a
        // third wake-up for a different connection (still a conflict).
        let mut twin_a = cand(1, None, true);
        twin_a.touch_conn = Some(simnet::testkit::conn_id(9));
        let mut twin_b = twin_a.clone();
        twin_b.seq = 2;
        let mut other = cand(1, None, true);
        other.touch_conn = Some(simnet::testkit::conn_id(10));
        let cp = ChoicePoint {
            step: 0,
            now: SimTime::from_nanos(100),
            candidates: vec![twin_a, twin_b, other],
        };
        assert_eq!(sched.choose(&cp), 0);
        let rec = record.borrow();
        assert_eq!(rec.branches[0], vec![2]);
        assert_eq!(rec.pruned[0], vec![1]);
    }
}

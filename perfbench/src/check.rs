//! The benchmark's own stabilization check, written apart from the
//! engine: a hash join over plain tuple values that shares no code with
//! `datalog::eval` or `repair_core::stability`.
//!
//! A delete-set `S` stabilizes `D` (Def. 3.14) when no rule body has a
//! satisfying assignment in the state `(D \ S, Δ = S)`: base atoms range
//! over live tuples outside `S`, delta atoms over the tuples of `S`. Every
//! rule's head is one of its base body atoms (the head witness), so a
//! satisfied body is exactly a violation.

use datalog::{Atom, Program, Rule, Term};
use storage::{FxHashMap as HashMap, FxHashSet as HashSet, Instance, Sym, TupleId, Value};

/// Does deleting `deleted` from `db` stabilize it under `program`?
pub fn is_stabilizing(db: &Instance, program: &Program, deleted: &[TupleId]) -> bool {
    let deleted: HashSet<TupleId> = deleted.iter().copied().collect();
    program
        .rules
        .iter()
        .all(|rule| !body_satisfiable(db, rule, &deleted))
}

/// The live tuples an atom may bind to in the post-deletion state.
fn candidates<'a>(db: &'a Instance, atom: &Atom, deleted: &HashSet<TupleId>) -> Vec<&'a [Value]> {
    let rel = db
        .schema()
        .rel_id(&atom.relation)
        .expect("program was validated against this schema");
    db.tuple_ids(rel)
        .filter(|t| deleted.contains(t) == atom.is_delta)
        .map(|t| db.tuple(t).values())
        .collect()
}

/// One body atom prepared for the join: its candidate tuples hashed on
/// the columns that are bound (constants, or variables bound by earlier
/// atoms) when the join reaches it.
struct Step<'a> {
    atom: &'a Atom,
    key_cols: Vec<usize>,
    table: HashMap<Vec<Value>, Vec<&'a [Value]>>,
}

fn body_satisfiable(db: &Instance, rule: &Rule, deleted: &HashSet<TupleId>) -> bool {
    let mut pending: Vec<(&Atom, Vec<&[Value]>)> = rule
        .body
        .iter()
        .map(|a| (a, candidates(db, a, deleted)))
        .collect();
    if pending.iter().any(|(_, c)| c.is_empty()) {
        return false;
    }
    // Join order: start from the smallest atom, then always take the atom
    // with the most bound columns (fewest candidates on ties).
    let mut bound: HashSet<Sym> = HashSet::default();
    let mut steps: Vec<Step> = Vec::new();
    while !pending.is_empty() {
        let score = |a: &Atom| {
            a.terms
                .iter()
                .filter(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                })
                .count()
        };
        let best = (0..pending.len())
            .max_by_key(|&i| {
                let (a, c) = &pending[i];
                (score(a), std::cmp::Reverse(c.len()))
            })
            .expect("pending is non-empty");
        let (atom, rows) = pending.swap_remove(best);
        let key_cols: Vec<usize> = atom
            .terms
            .iter()
            .enumerate()
            .filter(|(_, t)| match t {
                Term::Const(_) => true,
                Term::Var(v) => bound.contains(v),
            })
            .map(|(i, _)| i)
            .collect();
        let mut table: HashMap<Vec<Value>, Vec<&[Value]>> = HashMap::default();
        let mut key: Vec<Value> = Vec::with_capacity(key_cols.len());
        for row in rows {
            key.clear();
            key.extend(key_cols.iter().map(|&c| row[c]));
            match table.get_mut(key.as_slice()) {
                Some(bucket) => bucket.push(row),
                None => {
                    table.insert(key.clone(), vec![row]);
                }
            }
        }
        for t in &atom.terms {
            if let Term::Var(v) = t {
                bound.insert(*v);
            }
        }
        steps.push(Step {
            atom,
            key_cols,
            table,
        });
    }
    let mut binding: HashMap<Sym, Value> = HashMap::default();
    search(rule, &steps, 0, &mut binding)
}

fn value_of(t: &Term, binding: &HashMap<Sym, Value>) -> Option<Value> {
    match t {
        Term::Const(c) => Some(*c),
        Term::Var(v) => binding.get(v).copied(),
    }
}

/// Depth-first join: bind `steps[depth..]` consistently with `binding`.
fn search(rule: &Rule, steps: &[Step], depth: usize, binding: &mut HashMap<Sym, Value>) -> bool {
    let Some(step) = steps.get(depth) else {
        return true;
    };
    let key: Vec<Value> = step
        .key_cols
        .iter()
        .map(|&c| value_of(&step.atom.terms[c], binding).expect("key columns are bound"))
        .collect();
    let Some(rows) = step.table.get(&key) else {
        return false;
    };
    for row in rows {
        let mut fresh: Vec<Sym> = Vec::new();
        let mut consistent = true;
        for (term, &value) in step.atom.terms.iter().zip(row.iter()) {
            if let Term::Var(v) = term {
                match binding.get(v) {
                    Some(&b) if b != value => {
                        consistent = false;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        binding.insert(*v, value);
                        fresh.push(*v);
                    }
                }
            }
        }
        let holds = consistent
            && rule.comparisons.iter().all(|c| {
                match (value_of(&c.lhs, binding), value_of(&c.rhs, binding)) {
                    (Some(l), Some(r)) => c.op.eval(&l, &r),
                    _ => true,
                }
            });
        if holds && search(rule, steps, depth + 1, binding) {
            return true;
        }
        for v in fresh {
            binding.remove(&v);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use repair_core::testkit::{figure1_instance, figure2_program};
    use repair_core::{RepairSession, Semantics};

    #[test]
    fn accepts_every_semantics_on_figure_1() {
        let session = RepairSession::new(figure1_instance(), figure2_program()).unwrap();
        for s in Semantics::ALL {
            let out = session.run(s);
            assert!(is_stabilizing(
                session.db(),
                session.program(),
                out.deleted()
            ));
        }
        // The unrepaired database is unstable.
        assert!(!is_stabilizing(session.db(), session.program(), &[]));
    }

    #[test]
    fn rejects_end_set_missing_one_tuple() {
        let session = RepairSession::new(figure1_instance(), figure2_program()).unwrap();
        let end = session.run(Semantics::End);
        assert!(end.size() > 1);
        let mut rejected = 0;
        for skip in 0..end.size() {
            let mut partial = end.deleted().to_vec();
            partial.remove(skip);
            let ours = is_stabilizing(session.db(), session.program(), &partial);
            assert_eq!(ours, session.verify_stabilizing(&partial), "skip {skip}");
            rejected += usize::from(!ours);
        }
        assert!(rejected > 0, "some one-short End set must be unstable");
    }
}

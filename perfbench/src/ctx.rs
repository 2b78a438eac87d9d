//! What one run collects: samples, operation counts, check verdicts and
//! (in the traced run) spans and per-layer values.

use crate::stats::Samples;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Default)]
pub struct Ctx {
    /// Is the current round traced?
    pub traced: bool,
    /// Run the output checks that hold copies of the data (in-memory
    /// twins, from-scratch sessions, the hash-join checker) while the
    /// rounds run. Only the traced process does, so that the timed
    /// process's peak memory is the engine's.
    pub full_checks: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Latency of every repair request of the untraced rounds; a failed
    /// request counts as infinitely slow, so it misses every latency
    /// limit.
    pub repair_ms: Samples,
    /// Workload-specific end-to-end figures, reported on stderr.
    pub detail: BTreeMap<&'static str, (&'static str, Samples)>,
    /// Per-layer values of each traced round.
    pub layers: BTreeMap<&'static str, Samples>,
    /// Per-layer values accumulated over the current traced round.
    pub round_layers: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
    /// Latency of every timed operation of the untraced rounds, keyed by
    /// what it is (session and step of the round), flagged when it is a
    /// repair request.
    pub op_ms: BTreeMap<String, (bool, Samples)>,
    /// The same for the traced rounds.
    pub traced_op_ms: BTreeMap<String, (bool, Samples)>,
    /// Time spent checking outputs, outside every timed operation.
    pub check_ms: f64,
    /// Set-ups completed so far; the first one describes its data.
    pub setups: usize,
    failures: Vec<String>,
}

impl Ctx {
    /// Record a check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Check with the benchmark's own join that `deleted` stabilizes `db`.
    pub fn stabilizing(
        &mut self,
        db: &storage::Instance,
        program: &datalog::Program,
        deleted: &[storage::TupleId],
        what: impl FnOnce() -> String,
    ) {
        let (ok, ms) = Ctx::timed(|| crate::check::is_stabilizing(db, program, deleted));
        self.check_ms += ms;
        self.check(ok, || format!("{}: delete-set is not stabilizing", what()));
    }

    /// Time one operation.
    pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_secs_f64() * 1e3)
    }

    /// Record one timed operation of the current round: a repair request
    /// or not, and a key naming it within the round.
    pub fn op_time(&mut self, repair: bool, key: impl FnOnce() -> String, ms: f64) {
        let ops = if self.traced {
            &mut self.traced_op_ms
        } else {
            &mut self.op_ms
        };
        ops.entry(key())
            .or_insert_with(|| (repair, Samples::default()))
            .1
            .push(ms);
    }

    /// Operation time per round at the machine's best: each operation's
    /// fastest latency times how often it runs per round, summed over the
    /// operations (only the repair requests with `repairs_only`) of the
    /// untraced or the traced rounds. An operation's key names its place
    /// in the set-up's sequence of rounds, and every set-up runs the same
    /// sequence, so the fastest sample of each is its cost with the least
    /// interference from other tenants of the host.
    pub fn fastest_round_ms(&self, traced: bool, rounds: usize, repairs_only: bool) -> Option<f64> {
        let ops = if traced {
            &self.traced_op_ms
        } else {
            &self.op_ms
        };
        (rounds > 0 && !ops.is_empty()).then(|| {
            ops.values()
                .filter(|(repair, _)| *repair || !repairs_only)
                .map(|(_, s)| s.min() * s.len() as f64 / rounds as f64)
                .sum()
        })
    }

    /// Typical operation latency at the machine's best: the geometric
    /// mean, over the operations of the untraced rounds, of each one's
    /// fastest latency. Every operation counts once, however long it
    /// takes, so the few longest requests, which the host's other tenants
    /// slow the most, do not dominate it as they do the round's sum.
    pub fn fastest_gmean_ms(&self) -> Option<f64> {
        let logs: Vec<f64> = self.op_ms.values().map(|(_, s)| s.min().ln()).collect();
        (!logs.is_empty()).then(|| (logs.iter().sum::<f64>() / logs.len() as f64).exp())
    }

    /// Record the latency of a repair request of an untraced round.
    pub fn repair_latency(&mut self, ms: f64) {
        if !self.traced {
            self.repair_ms.push(ms);
        }
    }

    /// Record a workload figure of an untraced round.
    pub fn detail(&mut self, name: &'static str, unit: &'static str, value: f64) {
        if self.traced {
            return;
        }
        self.detail
            .entry(name)
            .or_insert_with(|| (unit, Samples::default()))
            .1
            .push(value);
    }

    /// Add `value` to a per-layer figure of the current traced round.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        *self.round_layers.entry(name).or_insert(0.0) += value;
    }

    /// Set a per-layer level (not a sum) for the current traced round.
    pub fn layer_level(&mut self, name: &'static str, value: f64) {
        self.round_layers.insert(name, value);
    }

    /// Close a traced round: add the span self times recorded since
    /// `mark` under their span names, then push every figure.
    pub fn end_traced_round(&mut self, mark: usize, timed_spans: &[(&'static str, &'static str)]) {
        let own = self.tracer.self_ms_since(mark);
        for &(span, metric) in timed_spans {
            if let Some(ms) = own.get(span) {
                self.layer(metric, *ms);
            }
        }
        for (name, value) in std::mem::take(&mut self.round_layers) {
            self.layers.entry(name).or_default().push(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Ctx;

    #[test]
    fn gmean_and_round_sum_take_each_operations_fastest_sample() {
        let mut ctx = Ctx::default();
        assert_eq!(ctx.fastest_gmean_ms(), None);
        for ms in [3.0, 2.0, 5.0] {
            ctx.op_time(true, || "a".into(), ms);
        }
        for ms in [8.0, 9.0, 8.5] {
            ctx.op_time(false, || "b".into(), ms);
        }
        let gmean = ctx.fastest_gmean_ms().unwrap();
        assert!((gmean - 4.0).abs() < 1e-9, "{gmean}");
        assert_eq!(ctx.fastest_round_ms(false, 3, false), Some(10.0));
        assert_eq!(ctx.fastest_round_ms(false, 3, true), Some(2.0));
    }
}

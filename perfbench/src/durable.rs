//! `durable-restart`: a long-lived durable session receiving mutation
//! batches, each batch followed by one default repair request.
//!
//! One round gives the session five batches in a fixed rotation: delete
//! (the previous round's fresh rows plus half a batch of tuples picked
//! once from the seed; a batch is about 1% of the rows), restore the
//! picked tuples, insert half a batch of fresh rows, apply the last
//! outcome, undo it. Every round thus ends on the original live rows plus
//! its own fresh rows. The fresh rows of each round become tombstones
//! (compaction keeps rows), so the store grows more churned round by
//! round and compacts every few rounds. Every set-up runs the same
//! [`ROUNDS`] rounds from a fresh store, and each operation is keyed by
//! its round, so an operation's samples all come from the same churn
//! level. The request after batch `i` asks for `rotation[i % len]`: End,
//! then each semantics the program's static certificate serves. After
//! the restore batch the store is reopened, with the round's first two
//! batches as the WAL tail to replay, and a cold End repair follows;
//! every round ends with a checkpoint.

use crate::ctx::Ctx;
use crate::data::Universe;
use datalog::{Evaluator, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use repair_core::engine::{DeltaPolicy, EngineState, FixpointDriver};
use repair_core::{DiskOptions, RepairOutcome, RepairRequest, RepairSession, Semantics};
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use storage::{DiskStore, Instance, RelId, TupleId, Value};

/// The session: zipf-cascade on zipf 2.5 (~300K rows).
const SESSION: (Universe, f64, &str) = (Universe::Zipf, 2.5, "zipf-cascade");

/// Batch size as a share of the session's rows.
const BATCH_SHARE: f64 = 0.01;
/// Compact once this share of rows turned into tombstones since the last
/// compaction: every third round adds 1.5%, so rounds 4 and 7 compact.
const COMPACT_EVERY: f64 = 0.012;
const BATCHES: usize = 5;
/// Rounds per set-up.
pub const ROUNDS: usize = 8;

/// The benchmark's mirror of one session, driven through the layers'
/// public functions in the traced run: a copy of the instance mutated
/// with the same batches, its own evaluator and end-fixpoint state
/// advanced over the copy's journal.
struct Twin {
    db: Instance,
    ev: Evaluator,
    es: EngineState,
    cursor: u64,
}

impl Twin {
    /// Mirror `session` as it stands.
    fn new(session: &RepairSession, program: &Program) -> Twin {
        let mut db = session.db().clone();
        let ev = Evaluator::new(&mut db, program.clone()).expect("valid program");
        let out = FixpointDriver::new(&ev, DeltaPolicy::AtEnd { naive: false }).run(&db);
        let cursor = db.journal().head();
        Twin {
            db,
            ev,
            es: EngineState::from_outcome(out),
            cursor,
        }
    }
}

struct Live {
    name: &'static str,
    program: Program,
    session: RepairSession,
    rotation: Vec<Semantics>,
    /// The relation fresh rows go into (the largest), and the column that
    /// gets a fresh value so the row is new.
    insert_rel: RelId,
    insert_col: usize,
    next_value: i64,
    /// The original tuples every delete batch removes and every restore
    /// batch revives: half a batch, picked once from the seed.
    delete_picks: Vec<TupleId>,
    /// The rows every insert batch copies with a fresh value.
    insert_sources: Vec<TupleId>,
    /// The fresh rows the last insert batch added; the next delete batch
    /// removes them for good.
    inserted_last: Vec<TupleId>,
    last_outcome: Option<RepairOutcome>,
    /// The delete-set the last apply committed: what undo restores.
    applied_last: Vec<TupleId>,
    tombstones_at_compaction: usize,
    twin: Option<Twin>,
    /// An in-memory session that receives the same batches, compared
    /// with the recovered one after every reopen; kept with full checks.
    mirror: Option<RepairSession>,
    checked_from_scratch: bool,
    /// Rounds completed since set-up.
    round: usize,
    /// Requests sent so far in the current round.
    repairs_in_round: usize,
}

pub struct Durable {
    live: Live,
    store: PathBuf,
}

fn rotation(session: &RepairSession) -> Vec<Semantics> {
    let c = session.certificate();
    let mut r = vec![Semantics::End];
    if c.single_stratum || c.interaction_free {
        r.push(Semantics::Stage);
    }
    if c.interaction_free {
        r.push(Semantics::Step);
    }
    if c.pure_cascade {
        r.push(Semantics::Independent);
    }
    r
}

impl Durable {
    /// Generate the data and create the store in `.bench_out/store-<pid>`.
    pub fn setup(seed: u64, ctx: &mut Ctx) -> Durable {
        let store = PathBuf::from(format!(".bench_out/store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store);
        let (u, scale, name) = SESSION;
        let data = crate::generate(ctx, u, scale, seed);
        let program = data.program(name);
        let mirror = ctx
            .full_checks
            .then(|| RepairSession::new(data.db.clone(), program.clone()).expect("valid program"));
        let session = RepairSession::create_durable(data.db, program.clone(), &store)
            .expect("create the durable store");
        Durable {
            live: Live::new(name, program, session, seed, mirror),
            store,
        }
    }

    pub fn round(&mut self, ctx: &mut Ctx) {
        let (live, dir) = (&mut self.live, self.store.as_path());
        live.repairs_in_round = 0;
        // Batches with their repair, per second of their own time.
        let mut batch_ms = 0.0;
        for batch in 0..BATCHES {
            let wal_before = wal_bytes(dir);
            let mutate_ms = live.mutate(ctx, batch);
            let wal_bytes = wal_bytes(dir).saturating_sub(wal_before);
            ctx.layer(
                "disk.wal_bytes_per_batch",
                wal_bytes as f64 / BATCHES as f64,
            );
            let repair_ms = live.repair(ctx, live.rotation[batch % live.rotation.len()]);
            ctx.detail("mutate_ms", "ms", mutate_ms);
            ctx.detail("rerepair_ms", "ms", repair_ms);
            batch_ms += mutate_ms + repair_ms;
            // Reopen with the delete and restore batches as the WAL tail
            // past the previous round's checkpoint.
            if batch == 1 {
                live.reopen(ctx, dir);
            }
        }
        live.compact_if_due(ctx);
        live.checkpoint(ctx, dir);
        ctx.layer_level("storage.dead_ratio", live.session.dead_ratio());
        ctx.layer_level("session.replans", live.session.replan_count() as f64);
        ctx.detail("batches_per_s", "1/s", BATCHES as f64 / (batch_ms / 1e3));
        live.round += 1;
    }

    /// The checks a timed run leaves to its end, after its peak memory
    /// was read: one request per semantics of the rotation on the churned
    /// session, each checked for stabilization with the benchmark's own
    /// join and against a from-scratch repair.
    pub fn final_check(&mut self, ctx: &mut Ctx) {
        let live = &mut self.live;
        for semantics in live.rotation.clone() {
            let request = RepairRequest::new(semantics);
            let out = live
                .session
                .repair(&request)
                .expect("default requests are valid");
            live.check_output(ctx, &request, &out, true);
        }
    }

    /// Close the session and remove the store directory.
    pub fn finish(self) {
        let store = self.store.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(store);
    }
}

/// Bytes held by the store's WAL files.
fn wal_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(".drw"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Bytes of the newest snapshot.
fn snapshot_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    let gen: u64 = name
                        .strip_prefix("snap-")?
                        .strip_suffix(".drs")?
                        .parse()
                        .ok()?;
                    Some((gen, e.metadata().ok()?.len()))
                })
                .max()
                .map_or(0, |(_, len)| len)
        })
        .unwrap_or(0)
}

impl Live {
    fn new(
        name: &'static str,
        program: Program,
        session: RepairSession,
        seed: u64,
        mirror: Option<RepairSession>,
    ) -> Live {
        let db = session.db();
        let insert_rel = db
            .schema()
            .iter()
            .map(|(rel, _)| rel)
            .max_by_key(|&rel| db.live_rows(rel))
            .expect("non-empty schema");
        let arity = db.schema().rel(insert_rel).arity();
        let sample = db
            .tuple_ids(insert_rel)
            .next()
            .expect("largest relation has rows");
        let insert_col = (0..arity)
            .filter(|&c| db.tuple(sample).values()[c].as_int().is_some())
            .max_by_key(|&c| db.relation(insert_rel).distinct_count(c))
            .expect("an integer column");
        // Each round replays the same picks, so rounds do the same work.
        let half_batch = ((db.total_rows() as f64) * BATCH_SHARE / 2.0) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let all: Vec<TupleId> = db.all_tuple_ids().collect();
        let mut delete_picks: Vec<TupleId> = (0..half_batch)
            .map(|_| all[rng.random_range(0..all.len())])
            .collect();
        delete_picks.sort_unstable();
        delete_picks.dedup();
        let candidates: Vec<TupleId> = db.tuple_ids(insert_rel).collect();
        let insert_sources = (0..half_batch)
            .map(|_| candidates[rng.random_range(0..candidates.len())])
            .collect();
        // A ready session holds its end-fixpoint checkpoint.
        session.run(Semantics::End);
        if let Some(m) = &mirror {
            m.run(Semantics::End);
        }
        Live {
            name,
            program,
            rotation: rotation(&session),
            session,
            insert_rel,
            insert_col,
            next_value: 1 << 40,
            delete_picks,
            insert_sources,
            inserted_last: Vec::new(),
            last_outcome: None,
            applied_last: Vec::new(),
            tombstones_at_compaction: 0,
            twin: None,
            mirror,
            checked_from_scratch: false,
            round: 0,
            repairs_in_round: 0,
        }
    }

    /// Fresh copies of the insert sources: each gets a new value in the
    /// insert column, so it is a new row that joins like its source.
    fn fresh_rows(&mut self) -> Vec<Vec<Value>> {
        let db = self.session.db();
        let mut rows = Vec::with_capacity(self.insert_sources.len());
        for &t in &self.insert_sources {
            let mut values = db.tuple(t).values().to_vec();
            values[self.insert_col] = Value::Int(self.next_value);
            self.next_value += 1;
            rows.push(values);
        }
        rows
    }

    /// Apply batch `batch` of the rotation to the session (timed), the
    /// mirror and, when traced, the twin. Returns the acknowledged latency.
    fn mutate(&mut self, ctx: &mut Ctx, batch: usize) -> f64 {
        ctx.attempted += 1;
        ctx.tracer.next_op();
        let rel_name = self.session.db().schema().rel(self.insert_rel).name.clone();
        // Prepare the batch outside the timer.
        enum Batch {
            Delete(Vec<TupleId>),
            Restore(Vec<TupleId>),
            Insert(Vec<Vec<Value>>),
            Apply(RepairOutcome),
            Undo,
        }
        let op = match batch {
            0 => {
                let mut ids = self.delete_picks.clone();
                ids.append(&mut self.inserted_last);
                ids.sort_unstable();
                Batch::Delete(ids)
            }
            1 => Batch::Restore(self.delete_picks.clone()),
            2 => Batch::Insert(self.fresh_rows()),
            3 => Batch::Apply(self.last_outcome.take().expect("a request preceded apply")),
            _ => Batch::Undo,
        };
        let traced = ctx.traced;
        if traced && self.twin.is_none() {
            self.twin = Some(Twin::new(&self.session, &self.program));
        }
        if traced {
            ctx.tracer.enter("op.mutate");
            ctx.tracer.enter("session.mutate");
        }
        let session = &mut self.session;
        let (inserted, ms) = Ctx::timed(|| match &op {
            Batch::Delete(ids) => session.delete_batch(ids).map(|_| Vec::new()),
            Batch::Restore(ids) => session.restore_batch(ids).map(|_| Vec::new()),
            Batch::Insert(rows) => session.insert_batch(&rel_name, rows.iter().cloned()),
            Batch::Apply(out) => session.apply(out).map(|_| Vec::new()),
            Batch::Undo => session.undo().map(|_| Vec::new()),
        });
        if traced {
            ctx.tracer.exit();
            ctx.tracer.exit();
        }
        let (name, round) = (self.name, self.round);
        ctx.op_time(false, || format!("{name}/r{round}/mutate{batch}"), ms);
        let inserted = match inserted {
            Ok(ids) => ids,
            Err(e) => {
                ctx.check(false, || format!("{name}: batch {batch} refused: {e}"));
                Vec::new()
            }
        };
        if let Some(m) = &mut self.mirror {
            let ok = match &op {
                Batch::Delete(ids) => m.delete_batch(ids).is_ok(),
                Batch::Restore(ids) => m.restore_batch(ids).is_ok(),
                Batch::Insert(rows) => {
                    m.insert_batch(&rel_name, rows.iter().cloned()).ok() == Some(inserted.clone())
                }
                Batch::Apply(out) => m.apply(out).is_ok(),
                Batch::Undo => m.undo().is_ok(),
            };
            ctx.check(ok, || {
                format!("{name}: in-memory twin refused batch {batch}")
            });
        }
        if traced {
            let twin = self.twin.as_mut().expect("built before the batch");
            let tr = &mut ctx.tracer;
            tr.enter("storage.mutate");
            let same_ids = match &op {
                Batch::Delete(ids) => twin.db.delete_tuples(ids.iter().copied()).is_ok(),
                Batch::Restore(ids) => twin.db.restore_tuples(ids.iter().copied()).is_ok(),
                Batch::Insert(rows) => {
                    let ids: Vec<TupleId> = rows
                        .iter()
                        .filter_map(|r| twin.db.insert_values(&rel_name, r.iter().copied()).ok())
                        .collect();
                    ids == inserted
                }
                Batch::Apply(out) => twin.db.delete_tuples(out.deleted().iter().copied()).is_ok(),
                Batch::Undo => twin
                    .db
                    .restore_tuples(self.applied_last.iter().copied())
                    .is_ok(),
            };
            tr.exit();
            let batch_delta = tr.span("storage.changes_since", || {
                twin.db.changes_since(twin.cursor)
            });
            let stats = match batch_delta {
                Some(delta) => {
                    ctx.layer("storage.journal_rows", delta.len() as f64);
                    let driver = FixpointDriver::new(&twin.ev, DeltaPolicy::AtEnd { naive: false });
                    Some(ctx.tracer.span("engine.advance", || {
                        driver.advance(&twin.db, &mut twin.es, &delta)
                    }))
                }
                None => None,
            };
            twin.cursor = twin.db.journal().head();
            twin.db.truncate_journal_before(twin.cursor);
            ctx.check(same_ids && stats.is_some(), || {
                format!("{name}: twin diverged at batch {batch}")
            });
            if let Some(s) = stats {
                ctx.layer("engine.retracted", s.retracted as f64);
                ctx.layer("engine.rederived", s.rederived as f64);
                ctx.layer("engine.dropped_assignments", s.dropped_assignments as f64);
                ctx.layer("engine.new_assignments", s.new_assignments as f64);
                ctx.layer("engine.advance_rounds", f64::from(s.rounds));
            }
        }
        match op {
            Batch::Insert(_) => self.inserted_last = inserted,
            Batch::Apply(out) => self.applied_last = out.deleted().to_vec(),
            _ => {}
        }
        ms
    }

    /// One default request (timed), its route counted and its delete-set
    /// checked.
    fn repair(&mut self, ctx: &mut Ctx, semantics: Semantics) -> f64 {
        ctx.attempted += 1;
        ctx.tracer.next_op();
        let request = RepairRequest::new(semantics);
        let traced = ctx.traced;
        if traced {
            ctx.tracer.enter("op.repair");
            ctx.tracer.enter("session.repair");
        }
        let (out, ms) = Ctx::timed(|| self.session.repair(&request));
        if traced {
            ctx.tracer.exit();
            ctx.tracer.exit();
        }
        let out = out.expect("default requests are valid");
        let (name, round) = (self.name, self.round);
        ctx.op_time(
            true,
            || {
                format!(
                    "{name}/r{round}/repair{}/{}",
                    self.repairs_in_round,
                    semantics.name()
                )
            },
            ms,
        );
        self.repairs_in_round += 1;
        ctx.repair_latency(ms);
        let via_certificate = out.served_via_certificate();
        ctx.layer(
            "session.route.certificate",
            f64::from(u8::from(via_certificate)),
        );
        ctx.layer(
            "session.route.incremental",
            f64::from(u8::from(out.served_incrementally())),
        );
        ctx.layer(
            "session.route.full",
            f64::from(u8::from(!via_certificate && !out.served_incrementally())),
        );
        if let Some(twin) = &self.twin {
            if traced {
                ctx.check(twin.es.deleted() == out.deleted(), || {
                    format!(
                        "{name}/{}: traced layers reached another delete-set",
                        semantics.name()
                    )
                });
            }
        }
        if ctx.full_checks {
            // Once per session per run: the incremental or
            // certificate-served answer against a from-scratch one.
            let from_scratch = !self.checked_from_scratch;
            self.check_output(ctx, &request, &out, from_scratch);
            self.checked_from_scratch |= via_certificate || self.rotation.len() == 1;
        } else {
            ctx.check(via_certificate == (semantics != Semantics::End), || {
                format!(
                    "{name}/{}: certificate route {via_certificate}",
                    semantics.name()
                )
            });
        }
        self.last_outcome = Some(out);
        ms
    }

    /// Check one answer of the session as it stands: its route (a request
    /// is certificate-served exactly when it asks for another semantics
    /// than End), its stabilization with the benchmark's own join and,
    /// with `from_scratch` when it was served incrementally or by the
    /// certificate, equality with a repair on a fresh session over a copy
    /// of the live instance with certificates and incremental serving off.
    fn check_output(
        &self,
        ctx: &mut Ctx,
        request: &RepairRequest,
        out: &RepairOutcome,
        from_scratch: bool,
    ) {
        let (name, semantics) = (self.name, out.semantics().name());
        let via_certificate = out.served_via_certificate();
        ctx.check(
            via_certificate == (out.semantics() != Semantics::End),
            || format!("{name}/{semantics}: certificate route {via_certificate}"),
        );
        let db = self.session.db();
        ctx.stabilizing(db, &self.program, out.deleted(), || {
            format!("{name}/{semantics}")
        });
        if from_scratch && (via_certificate || out.served_incrementally()) {
            let (same, ms) = Ctx::timed(|| {
                let fresh =
                    RepairSession::new(db.clone(), self.program.clone()).expect("valid program");
                let full = fresh
                    .repair(&request.clone().certificates(false).incremental(false))
                    .expect("valid request");
                full.deleted() == out.deleted()
            });
            ctx.check_ms += ms;
            ctx.check(same, || {
                format!("{name}/{semantics}: differs from a from-scratch repair")
            });
        }
    }

    /// Compact once enough tombstones built up since the last compaction.
    fn compact_if_due(&mut self, ctx: &mut Ctx) {
        let db = self.session.db();
        let total: usize = db.schema().iter().map(|(rel, _)| db.rows(rel)).sum();
        let tombstones = total - db.total_rows();
        let new = tombstones.saturating_sub(self.tombstones_at_compaction);
        if (new as f64) < COMPACT_EVERY * total as f64 {
            return;
        }
        self.tombstones_at_compaction = tombstones;
        ctx.attempted += 1;
        ctx.tracer.next_op();
        let traced = ctx.traced;
        if traced {
            ctx.tracer.enter("op.compact");
        }
        let (_, ms) = Ctx::timed(|| self.session.compact(0.0));
        let (name, round) = (self.name, self.round);
        ctx.op_time(false, || format!("{name}/r{round}/compact"), ms);
        if traced {
            ctx.tracer.exit();
            let twin = self.twin.as_mut().expect("traced runs build a twin");
            ctx.tracer.span("storage.compact", || twin.db.compact(0.0));
        }
        if let Some(m) = &mut self.mirror {
            m.compact(0.0);
        }
        ctx.detail("compact_ms", "ms", ms);
    }

    /// Force a checkpoint (timed).
    fn checkpoint(&mut self, ctx: &mut Ctx, dir: &std::path::Path) {
        ctx.attempted += 1;
        ctx.tracer.next_op();
        let traced = ctx.traced;
        if traced {
            ctx.tracer.enter("op.checkpoint");
        }
        let (gen, ms) = Ctx::timed(|| self.session.checkpoint());
        let (name, round) = (self.name, self.round);
        ctx.op_time(false, || format!("{name}/r{round}/checkpoint"), ms);
        if traced {
            ctx.tracer.exit();
            ctx.layer_level("disk.snapshot_bytes", snapshot_bytes(dir) as f64);
        }
        ctx.check(gen.is_ok(), || format!("{name}: checkpoint failed"));
        ctx.detail("checkpoint_ms", "ms", ms);
    }

    /// Drop the session, reopen the store (timed) and send a cold End
    /// repair (timed); then compare the recovered state with the closed
    /// session's and, with full checks, with the in-memory twin session.
    fn reopen(&mut self, ctx: &mut Ctx, dir: &std::path::Path) {
        let traced = ctx.traced;
        let (name, round) = (self.name, self.round);
        let closed = Fingerprint::of(&self.session);
        // Swap in a placeholder so the durable session is really closed
        // before the store is reopened.
        let placeholder = RepairSession::new(
            Instance::new(storage::Schema::new()),
            Program::new(Vec::new()),
        )
        .expect("an empty program is valid");
        drop(std::mem::replace(&mut self.session, placeholder));
        if traced {
            let tr = &mut ctx.tracer;
            tr.next_op();
            tr.enter("disk.open");
            let opened = DiskStore::open(dir, DiskOptions::default());
            let open_ms = tr.exit();
            ctx.layer("disk.open_ms", open_ms);
            match opened {
                Ok((_, mut db, _, report)) => {
                    ctx.layer("disk.replayed_records", report.records_replayed as f64);
                    let (ev, plan_ms) =
                        Ctx::timed(|| Evaluator::new(&mut db, self.program.clone()));
                    ctx.check(ev.is_ok(), || {
                        format!("{name}: planning the recovered instance failed")
                    });
                    ctx.layer("datalog.plan_ms", plan_ms);
                }
                Err(e) => ctx.check(false, || format!("{name}: DiskStore::open failed: {e}")),
            }
        }
        ctx.attempted += 1;
        ctx.tracer.next_op();
        if traced {
            ctx.tracer.enter("op.open");
        }
        let (session, open_ms) =
            Ctx::timed(|| RepairSession::open_durable(dir, self.program.clone()));
        if traced {
            ctx.tracer.exit();
        }
        ctx.op_time(false, || format!("{name}/r{round}/open"), open_ms);
        self.session = session.expect("reopen the durable store");
        ctx.detail("open_ms", "ms", open_ms);
        let replayed = self
            .session
            .recovery_report()
            .map_or(0, |r| r.records_replayed);
        ctx.check(replayed > 0, || {
            format!("{name}: reopen found no WAL tail to replay")
        });
        let recovered = Fingerprint::of(&self.session);
        ctx.check(recovered == closed, || {
            format!("{name}: recovered state differs from the closed session's")
        });
        if let Some(m) = &self.mirror {
            let twin = Fingerprint::of(m);
            ctx.check(self.session.db() == m.db(), || {
                format!("{name}: recovered instance differs from the twin")
            });
            ctx.check(recovered.epoch == twin.epoch, || {
                format!("{name}: recovered epoch differs from the twin")
            });
            ctx.check(recovered.history == twin.history, || {
                format!("{name}: recovered undo history differs")
            });
        }
        let first_ms = self.repair(ctx, Semantics::End);
        ctx.detail("first_repair_ms", "ms", first_ms);
    }
}

/// What a reopen must recover of a session, held without a copy of its
/// data: a hash of every row of the instance with its liveness, the
/// epoch and the undo history.
#[derive(PartialEq)]
struct Fingerprint {
    rows: u64,
    epoch: u64,
    history: Vec<(Semantics, Vec<TupleId>)>,
}

impl Fingerprint {
    fn of(session: &RepairSession) -> Fingerprint {
        let db = session.db();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (rel, _) in db.schema().iter() {
            db.rows(rel).hash(&mut h);
            for row in 0..db.rows(rel) as u32 {
                let t = TupleId::new(rel, row);
                (db.is_live(t), db.tuple(t)).hash(&mut h);
            }
        }
        Fingerprint {
            rows: h.finish(),
            epoch: session.epoch(),
            history: session
                .history()
                .iter()
                .map(|a| (a.semantics, a.deleted.clone()))
                .collect(),
        }
    }
}

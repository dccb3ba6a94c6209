#include "tabling/evaluator.h"

#include <cstdio>
#include <cstdlib>

#include "parser/writer.h"

namespace xsb {
namespace {

// Prefers the consult-time analyzer's S001 verdict (which carries a source
// span and the offending component) over the generic runtime message. The
// runtime trigger itself is unchanged; the generic text remains the fallback
// when the analyzer never saw this predicate (runtime asserts, skipped
// analysis).
Status StratificationFailure(Machine* machine, FunctorId functor,
                             const char* fallback) {
  const std::string* reason =
      machine->program()->UnstratifiedReason(functor);
  if (reason != nullptr) return StratificationError(*reason);
  return StratificationError(fallback);
}

// Internal unwind signal: a batch hit a call outside its owned shards and
// the non-blocking widening lost the race. It propagates through the
// machine's ordinary error path (disposing the batch's partial tables on the
// way out) and is consumed by the top-level retry loop — it never reaches
// the API.
Status RetryEvaluation() {
  return Status(ErrorCode::kRetryEvaluation,
                "shard escalation contended; restarting coarse");
}

// Internal unwind signal for a deferrable query (see
// Evaluator::AllowDeferral): its first goal would have waited on another
// session. Nothing has been evaluated or delivered yet; the QueryService
// worker requeues the query — it never reaches the API.
Status Deferred() {
  return Status(ErrorCode::kDeferred, "evaluation busy; query requeued");
}

}  // namespace

Evaluator::Evaluator(Machine* machine, TableSpace* tables, Options options)
    : machine_(machine),
      tables_(tables),
      early_completion_(options.early_completion),
      incremental_(options.incremental) {
  SymbolTable* symbols = machine->store()->symbols();
  f_resolve_clauses_ = symbols->InternFunctor(
      symbols->InternAtom("$resolve_clauses"), 1);
  f_tabled_answer_ =
      symbols->InternFunctor(symbols->InternAtom("$tabled_answer"), 2);
  f_consumer_ = symbols->InternFunctor(symbols->InternAtom("$consumer"), 2);
  machine->set_tabled_handler(this);
  // The Program has one update-listener slot; the first evaluator built on
  // it (a QueryService's control session) owns it. Every session of a
  // shared table space sees the invalidation it raises anyway.
  if (machine->program()->update_listener() == nullptr) {
    machine->program()->set_update_listener(this);
  }
}

Evaluator::~Evaluator() {
  if (machine_->program()->update_listener() == this) {
    machine_->program()->set_update_listener(nullptr);
  }
}

void Evaluator::AllowDeferral(bool allow) {
  defer_mark_ = allow ? machine_->goals_dispatched() : kNoDeferral;
}

bool Evaluator::MayDefer() const {
  return defer_mark_ != kNoDeferral && !InBatch() &&
         machine_->goals_dispatched() == defer_mark_ + 1;
}

size_t Evaluator::OpenBatch() {
  if (open_batches_ == batches_.size()) batches_.emplace_back();
  Batch& batch = batches_[open_batches_];
  batch.id = tables_->NextBatchId();
  batch.subgoals.clear();
  batch.consumers.clear();
  batch.saved_cells.clear();
  batch.generator_queue.clear();
  batch.stop_on_answer = kNoSubgoal;
  batch.aborted = false;
  return open_batches_++;
}

void Evaluator::FoldStats() {
  TableStats& shared = tables_->stats();
  auto fold = [](std::atomic<uint64_t>& to, uint64_t now, uint64_t then) {
    if (now != then) to.fetch_add(now - then, std::memory_order_relaxed);
  };
  fold(shared.answers_inserted, stats_.answers_inserted,
       folded_.answers_inserted);
  fold(shared.duplicate_answers, stats_.duplicate_answers,
       folded_.duplicate_answers);
  fold(shared.factored_cells_saved, stats_.factored_cells_saved,
       folded_.factored_cells_saved);
  fold(shared.subsumed_dropped, stats_.subsumed_dropped,
       folded_.subsumed_dropped);
  fold(shared.subsumed_replaced, stats_.subsumed_replaced,
       folded_.subsumed_replaced);
  fold(shared.consumer_suspensions, stats_.consumer_suspensions,
       folded_.consumer_suspensions);
  fold(shared.consumer_resumptions, stats_.consumer_resumptions,
       folded_.consumer_resumptions);
  folded_ = stats_;
}

void Evaluator::AbolishAllTables() {
  ShardLease lease(tables_, kAllEvalShards);
  tables_->Clear();
}

ShardMask Evaluator::ReachMask(FunctorId functor) const {
  const Predicate* pred = machine_->program()->Lookup(functor);
  if (pred == nullptr || pred->eval_shard() < 0) return kAllEvalShards;
  // The self bit is OR-ed in explicitly: a predicate tabled *after* the
  // analysis ran has a shard but no tabled bit in its published mask, and
  // exclusivity requires every evaluator of `functor` to hold its shard.
  return pred->eval_reach_mask() | EvalShardBit(pred->eval_shard());
}

ShardMask Evaluator::ReachMask(FunctorId functor, Word goal) const {
  const Predicate* pred = machine_->program()->Lookup(functor);
  if (pred == nullptr || pred->eval_shard() < 0) return kAllEvalShards;
  ShardMask self = EvalShardBit(pred->eval_shard());
  TermStore* store = machine_->store();
  int arity = IsStruct(goal) ? store->StructArity(goal) : 0;

  // First-argument key masks: when every live clause keys on a constant
  // first argument, a bound first argument selects one clause group and
  // needs only that group's reach; a key-table miss means no clause can
  // match, so only the predicate's own shard is touched.
  const std::unordered_map<Word, ShardMask>* keys = pred->key_masks();
  if (keys != nullptr && arity >= 1) {
    Word a0 = store->Deref(store->Arg(goal, 0));
    if (IsAtom(a0) || IsInt(a0)) {
      auto it = keys->find(a0);
      return it == keys->end() ? self : (it->second | self);
    }
  }

  const PublishedModes* modes = pred->modes();
  if (modes == nullptr) return pred->eval_reach_mask() | self;

  // Runtime mode-violation counter: the site join is the join over every
  // call site the analysis saw, so a top-level call less bound than it is
  // a pattern the static analysis never predicted.
  if (static_cast<int>(modes->site_join.size()) == arity) {
    for (int i = 0; i < arity; ++i) {
      uint8_t m = modes->site_join[i];
      if (m == kModeAny) continue;
      Word v = store->Deref(store->Arg(goal, i));
      bool consistent = m == kModeFree     ? IsRef(v)
                        : m == kModeNonvar ? !IsRef(v)
                                           : store->IsGround(v);
      if (!consistent) {
        ++tables_->stats().mode_violations;
        break;
      }
    }
  }

  // Per-pattern reach masks: a pattern whose call modes the actual goal
  // satisfies abstracts this concrete call, so its mask upper-bounds the
  // call's reach; intersecting over all such patterns keeps the tightest.
  ShardMask best = 0;
  bool found = false;
  for (const PublishedModes::Pattern& pat : modes->patterns) {
    if (pat.reach_mask == 0 ||
        static_cast<int>(pat.call.size()) != arity) {
      continue;
    }
    bool satisfied = true;
    for (int i = 0; i < arity && satisfied; ++i) {
      uint8_t m = pat.call[i];
      if (m == kModeAny) continue;
      Word v = store->Deref(store->Arg(goal, i));
      satisfied = m == kModeFree     ? IsRef(v)
                  : m == kModeNonvar ? !IsRef(v)
                                     : store->IsGround(v);
    }
    if (!satisfied) continue;
    best = found ? (best & pat.reach_mask) : pat.reach_mask;
    found = true;
  }
  if (found) return best | self;
  return pred->eval_reach_mask() | self;
}

const TableSpec* Evaluator::SpecFor(FunctorId functor) const {
  const Predicate* pred = machine_->program()->Lookup(functor);
  return pred == nullptr ? nullptr : pred->table_spec();
}

Status Evaluator::EnsureOwnedForCall(FunctorId functor) {
  ShardMask need = ReachMask(functor) & ~owned_shards_;
  if (need == 0) return Status::Ok();
  // Already holding shards: blocking here could deadlock, so the widening
  // is try-only; contention unwinds the batch into the coarse restart.
  if (!tables_->TryAcquireShards(need)) return RetryEvaluation();
  owned_shards_ |= need;
  ++tables_->stats().shard_escalations;
  return Status::Ok();
}

#ifdef XSB_MODE_ORACLE
void Evaluator::RecordModeExpectation(SubgoalId id, FunctorId functor) {
  ModeExpectation exp;
  const Predicate* pred = machine_->program()->Lookup(functor);
  if (pred != nullptr && pred->modes() != nullptr) {
    exp.has_modes = true;
    exp.epoch = pred->modes()->epoch;
    exp.success = pred->modes()->success_join;
  }
  mode_expectations_[id] = std::move(exp);
}

void Evaluator::CheckAnswerModes(SubgoalId id, Word call_instance) {
  auto it = mode_expectations_.find(id);
  if (it == mode_expectations_.end() || !it->second.has_modes) return;
  const ModeExpectation& exp = it->second;
  // Runtime asserts since the analysis may have added clauses with more
  // general answers: the published success modes are no longer a bound on
  // the current program, so the oracle stands down for this table.
  if (exp.epoch != machine_->program()->clause_epoch()) return;
  TermStore* store = machine_->store();
  Word d = store->Deref(call_instance);
  int arity = IsStruct(d) ? store->StructArity(d) : 0;
  auto die = [&](const char* what, int argnum) {
    std::fprintf(stderr,
                 "mode oracle: answer for subgoal %lld violates proven "
                 "success mode (%s, argument %d)\n",
                 static_cast<long long>(id), what, argnum);
    std::abort();
  };
  if (exp.success.empty()) {
    // success_join is empty exactly when the analysis proved every call
    // pattern of this predicate fails — an answer refutes the analysis.
    die("predicate proven to never succeed", 0);
  }
  if (static_cast<int>(exp.success.size()) != arity) return;
  for (int i = 0; i < arity; ++i) {
    Word v = store->Deref(store->Arg(d, i));
    if (exp.success[i] == kModeGround && !store->IsGround(v)) {
      die("proven ground", i + 1);
    }
    if (exp.success[i] == kModeNonvar && IsRef(v)) {
      die("proven nonvar", i + 1);
    }
  }
}
#endif  // XSB_MODE_ORACLE

void Evaluator::SeedSubgoalDeps(SubgoalId id, FunctorId functor) {
#ifdef XSB_MODE_ORACLE
  RecordModeExpectation(id, functor);
#endif
  const std::vector<FunctorId>* seeds =
      machine_->program()->IncrementalDepsOf(functor);
  if (seeds != nullptr) {
    for (FunctorId pred : *seeds) tables_->AddPredReader(pred, id);
  }
  // Runtime-declared incremental predicates may predate any analysis run;
  // a table always depends on its own predicate's clauses.
  const Predicate* pred = machine_->program()->Lookup(functor);
  if (pred != nullptr && pred->incremental()) {
    tables_->AddPredReader(functor, id);
  }
}

void Evaluator::OnIncrementalAccess(FunctorId functor) {
  SubgoalId current = CurrentSubgoal();
  if (current != kNoSubgoal) tables_->AddPredReader(functor, current);
}

void Evaluator::OnIncrementalUpdate(FunctorId functor) {
  ++stats_.update_events;
  if (!incremental_) {
    // Baseline policy: any update to incremental data invalidates the world
    // (deferred while a batch runs; see TableSpace::ClearOrDefer).
    tables_->ClearOrDefer();
    return;
  }
  // Invalidation is shard-free: it takes the structure mutex and flips
  // per-subgoal atomics, so it is safe both mid-batch (assertz from inside
  // evaluation) and against other sessions' batches.
  tables_->InvalidateForPredicate(functor);
}

void Evaluator::OnIncrementalDeclaration(FunctorId /*functor*/) {
  if (tables_->num_subgoals() == 0) return;
  if (incremental_) {
    tables_->InvalidateAll();
  } else {
    tables_->ClearOrDefer();
  }
}

Word Evaluator::BuildConsumerTerm(Word goal, const GoalNode* cont) {
  TermStore* store = machine_->store();
  std::vector<Word>& goals = goals_scratch_;
  goals.clear();
  for (const GoalNode* n = cont; n != nullptr; n = n->next) {
    goals.push_back(n->goal);
  }
  Word list = store->MakeList(goals, AtomCell(store->symbols()->nil()));
  return store->MakeStruct(f_consumer_, {goal, list});
}

bool Evaluator::TryServeWarm(Machine* machine, Word goal,
                             const GoalNode* cont) {
  // A pending clear has retired every table, even before it is applied.
  if (tables_->clear_pending()) return false;
  TermStore* store = machine->store();
  SubgoalId id = tables_->Lookup(*store, goal);  // lock-free; miss advisory
  if (id == kNoSubgoal) return false;
  const Subgoal& sg = tables_->subgoal(id);
  // Revalidation protocol (see Subgoal): state first, then the table
  // pointer, then state/invalid again. If the re-check still reads
  // complete+valid, `table` is the published complete snapshot (a racing
  // retirement would have moved `state` out of kComplete *before* swapping
  // the pointer), and epoch protection keeps it readable even if it is
  // retired after we return.
  if (sg.state_acquire() != SubgoalState::kComplete) return false;
  AnswerTable* table = sg.table();
  if (sg.state_acquire() != SubgoalState::kComplete || sg.invalid_acquire()) {
    return false;
  }
  ++tables_->stats().shared_table_hits;
  machine->PushAnswerChoices(goal, table, cont);
  return true;
}

TabledCallHandler::CallOutcome Evaluator::OnTabledCall(
    Machine* machine, Word goal, FunctorId functor, const GoalNode* cont) {
  TermStore* store = machine->store();

  if (!InBatch()) {
    // Top-level call. The warm path — table already complete and valid —
    // is fully lock-free; it is the path concurrent serving scales on.
    if (TryServeWarm(machine, goal, cont)) {
      return CallOutcome::kContinue;
    }
    if (tables_->shared()) {
      // First caller computes: if another session's batch is mid-evaluation
      // of this variant, park until it completes rather than duplicating
      // the work, then serve the published table.
      for (int spins = 0; spins < 64; ++spins) {
        SubgoalId id = tables_->Lookup(*store, goal);
        if (id == kNoSubgoal) break;
        const Subgoal& sg = tables_->subgoal(id);
        if (sg.state_acquire() != SubgoalState::kIncomplete) break;
        if (MayDefer()) {
          machine->SetError(Deferred());
          return CallOutcome::kError;
        }
        ++tables_->stats().waits_on_inprogress;
        tables_->WaitUntilComplete(id);
        if (TryServeWarm(machine, goal, cont)) {
          return CallOutcome::kContinue;
        }
      }
    }
    // Cold path (also when an update left the table invalid): complete the
    // table, then enumerate its answers.
    const AnswerTable* table = nullptr;
    bool has_answer = false;
    Status st = Complete(goal, functor, /*existential=*/false, &table,
                         &has_answer);
    if (!st.ok()) {
      machine->SetError(st);
      return CallOutcome::kError;
    }
    machine->PushAnswerChoices(goal, table, cont);
    return CallOutcome::kContinue;
  }

  // In-batch call: widen this batch's shard ownership to cover the callee
  // before touching its tables (stale reach masks are repaired here).
  Batch& batch = CurrentBatch();
  Status own = EnsureOwnedForCall(functor);
  if (!own.ok()) {
    machine->SetError(own);
    return CallOutcome::kError;
  }
  auto [id, created] =
      tables_->LookupOrCreate(*store, goal, functor, batch.id,
                              SpecFor(functor));
  // The consuming table depends on the consumed one: an update invalidating
  // `id` must also invalidate whoever built answers from it.
  SubgoalId caller = CurrentSubgoal();
  if (caller != kNoSubgoal) tables_->AddDependent(id, caller);
  Subgoal& sg = tables_->subgoal(id);
  if (!created) {
    if (sg.state_acquire() == SubgoalState::kComplete) {
      if (!tables_->NeedsReevaluation(id)) {
        machine->PushAnswerChoices(goal, sg.table(), cont);
        return CallOutcome::kContinue;
      }
      // Invalid table called mid-batch: reopen it as a generator of this
      // batch; the caller suspends as an ordinary consumer below.
      tables_->ResetForReevaluation(id, batch.id);
#ifdef XSB_MODE_ORACLE
      RecordModeExpectation(id, functor);
#endif
      batch.subgoals.push_back(id);
      batch.generator_queue.push_back(id);
    } else if (sg.batch_id != batch.id) {
      machine->SetError(StratificationFailure(
          machine, functor,
          "tabled subgoal depends on an incomplete table of an enclosing "
          "negation: the program is not modularly stratified"));
      return CallOutcome::kError;
    }
  } else {
    SeedSubgoalDeps(id, functor);
    batch.subgoals.push_back(id);
    batch.generator_queue.push_back(id);
  }
  // Suspend the caller as a consumer; the batch loop delivers its answers.
  Consumer consumer;
  consumer.producer = id;
  consumer.owner = caller;
  // Flattened straight onto the batch's store: its vectors are kept from
  // batch to batch, so this allocates only while the store outgrows them.
  consumer.saved_begin = batch.saved_cells.size();
  consumer.saved_vars = AppendFlattened(
      *store, BuildConsumerTerm(goal, cont), &batch.saved_cells);
  batch.consumers.push_back(consumer);
  ++stats_.consumer_suspensions;
  return CallOutcome::kFail;
}

TabledCallHandler::CallOutcome Evaluator::OnTabledAnswer(Machine* machine,
                                                         int64_t subgoal_index,
                                                         Word call_instance) {
  TermStore* store = machine->store();
  SubgoalId id = static_cast<SubgoalId>(subgoal_index);
  size_t saved = 0;
  AnswerInsert outcome = tables_->AddAnswer(id, *store, call_instance, &saved);
  switch (outcome) {
    case AnswerInsert::kNew:
      ++stats_.answers_inserted;
      stats_.factored_cells_saved += saved;
      break;
    case AnswerInsert::kReplaced:
      ++stats_.answers_inserted;
      ++stats_.subsumed_replaced;
      stats_.factored_cells_saved += saved;
      break;
    case AnswerInsert::kDuplicate:
      ++stats_.duplicate_answers;
      break;
    case AnswerInsert::kSubsumedDropped:
      ++stats_.subsumed_dropped;
      break;
    case AnswerInsert::kBadAggregate:
      machine->SetError(TypeError(
          "answer subsumption: min/max argument must be an integer"));
      return CallOutcome::kError;
  }
  // A replacement is an insertion: the table grew (the beaten answer was
  // retired in place, not unlinked), so suspended consumers see it as a new
  // answer and re-fire — exactly the wake semantics of a fresh answer.
  bool fresh =
      outcome == AnswerInsert::kNew || outcome == AnswerInsert::kReplaced;
#ifdef XSB_MODE_ORACLE
  // Only answers actually stored are asserted against the published success
  // modes: lattice-dropped candidates never become answers of the predicate,
  // and answers later retired by a replacement were valid when stored.
  if (fresh) CheckAnswerModes(id, call_instance);
#endif
  if (fresh && InBatch()) {
    Batch& batch = CurrentBatch();
    if (batch.stop_on_answer == id) {
      // Existential negation: one answer suffices; abandon the batch.
      batch.aborted = true;
      ++stats_.existential_aborts;
      machine->RequestStop();
      return CallOutcome::kFail;
    }
    Subgoal& sg = tables_->subgoal(id);
    if (early_completion_ && sg.ground_call() &&
        sg.state_acquire() == SubgoalState::kIncomplete) {
      // Early completion: a ground call has exactly this one answer.
      sg.state.store(SubgoalState::kComplete, std::memory_order_release);
      ++stats_.early_completions;
      machine->RequestStop();
    }
  }
  return CallOutcome::kFail;
}

Status Evaluator::RunGeneratorEpisode(SubgoalId id) {
  TermStore* store = machine_->store();
  const Subgoal& sg = tables_->subgoal(id);
  if (sg.state_acquire() != SubgoalState::kIncomplete) return Status::Ok();

  size_t trail = store->TrailMark();
  size_t heap = store->HeapMark();
  Word call = Unflatten(store, sg.call);
  Word resolve = store->MakeStruct(f_resolve_clauses_, {call});
  Word marker = store->MakeStruct(
      f_tabled_answer_, {IntCell(static_cast<int64_t>(id)), call});
  uint32_t cut_depth = static_cast<uint32_t>(machine_->choice_point_count());
  const GoalNode* chain = machine_->Cons(
      resolve, machine_->Cons(marker, nullptr, cut_depth), cut_depth);
  eval_stack_.push_back(id);
  Status status =
      machine_->Run(chain, []() { return SolveAction::kContinue; });
  eval_stack_.pop_back();
  store->UndoTrail(trail);
  store->TruncateHeap(heap);
  return status;
}

Status Evaluator::ResumeConsumer(size_t batch_index, size_t consumer_index) {
  TermStore* store = machine_->store();
  SymbolTable* symbols = store->symbols();
  size_t trail = store->TrailMark();
  size_t heap = store->HeapMark();

  // The consumer vector may grow (and move) while the continuation runs:
  // take what the pass needs now, and keep the cursor in a local.
  const Batch& running = batches_[batch_index];
  const Consumer& consumer = running.consumers[consumer_index];
  SubgoalId owner = consumer.owner;
  const AnswerTable* producer = tables_->subgoal(consumer.producer).table();
  size_t cursor = consumer.next_answer;
  Word pair = store->Deref(UnflattenAt(store, running.saved_cells.data(),
                                       consumer.saved_begin,
                                       consumer.saved_vars));
  Word call = store->Arg(pair, 0);
  Word list = store->Deref(store->Arg(pair, 1));

  // Rebuild the continuation chain, once for the whole pass.
  std::vector<Word>& goals = goals_scratch_;
  goals.clear();
  FunctorId cons = symbols->cons();
  while (IsStruct(list) && store->StructFunctor(list) == cons) {
    goals.push_back(store->Arg(list, 0));
    list = store->Deref(store->Arg(list, 1));
  }
  // Above RunAnswers' answer choice point: see Machine::RunAnswers.
  uint32_t cut_depth =
      static_cast<uint32_t>(machine_->choice_point_count() + 1);
  const GoalNode* chain = nullptr;
  for (auto it = goals.rbegin(); it != goals.rend(); ++it) {
    chain = machine_->Cons(*it, chain, cut_depth);
  }

  // Generators go first: a generator queued by this pass, or an aborted
  // batch, ends the pass at the next answer boundary.
  auto deliver = [this, batch_index]() {
    const Batch& batch = batches_[batch_index];
    if (batch.aborted || !batch.generator_queue.empty()) return false;
    ++stats_.consumer_resumptions;
    return true;
  };
  // The continuation is part of `owner`'s clause bodies: run it in the
  // owner's dependency-capture context.
  eval_stack_.push_back(owner);
  Status status =
      machine_->RunAnswers(call, producer, &cursor, chain, deliver);
  eval_stack_.pop_back();
  batches_[batch_index].consumers[consumer_index].next_answer = cursor;
  store->UndoTrail(trail);
  store->TruncateHeap(heap);
  return status;
}

Status Evaluator::RunBatchLoop(size_t batch_index) {
  while (true) {
    if (batches_[batch_index].aborted) return Status::Ok();

    if (!batches_[batch_index].generator_queue.empty()) {
      SubgoalId next = batches_[batch_index].generator_queue.back();
      batches_[batch_index].generator_queue.pop_back();
      Status status = RunGeneratorEpisode(next);
      if (!status.ok()) return status;
      continue;
    }

    // Deliver pending answers to consumers, newest first: a deep producer
    // drains before the consumers of its answers run, so one sweep carries
    // answers all the way up a recursive chain. The vectors can grow during
    // a pass, so everything is re-fetched through indices; consumers added
    // during the sweep wait for the next one.
    bool progressed = false;
    for (size_t ci = batches_[batch_index].consumers.size(); ci-- > 0;) {
      const Batch& batch = batches_[batch_index];
      if (batch.aborted || !batch.generator_queue.empty()) break;
      const Consumer& c = batch.consumers[ci];
      size_t before = c.next_answer;
      if (before >= tables_->subgoal(c.producer).table()->size()) continue;
      Status status = ResumeConsumer(batch_index, ci);
      if (!status.ok()) return status;
      progressed |= batches_[batch_index].consumers[ci].next_answer != before;
    }
    if (!batches_[batch_index].generator_queue.empty()) continue;
    if (!progressed) return Status::Ok();  // fixpoint
  }
}

Status Evaluator::EvaluateToCompletion(Word goal, FunctorId functor,
                                       bool existential, bool* has_answer,
                                       SubgoalId* root_out) {
  TermStore* store = machine_->store();
  ++stats_.batches;
  size_t batch_index = OpenBatch();

  auto [root, created] =
      tables_->LookupOrCreate(*store, goal, functor, batches_[batch_index].id,
                              SpecFor(functor));
  if (created) {
    SeedSubgoalDeps(root, functor);
  } else if (tables_->NeedsReevaluation(root)) {
    tables_->ResetForReevaluation(root, batches_[batch_index].id);
#ifdef XSB_MODE_ORACLE
    RecordModeExpectation(root, functor);
#endif
  }
  batches_[batch_index].subgoals.push_back(root);
  batches_[batch_index].generator_queue.push_back(root);
  if (existential) batches_[batch_index].stop_on_answer = root;

  Status status = RunBatchLoop(batch_index);

  Batch& batch = batches_[batch_index];
  bool answered = batch.aborted || !tables_->subgoal(root).table()->empty();
  if (!status.ok() || batch.aborted) {
    // Error, or existential abort: the partial tables are unusable (paper:
    // existential negation "cuts away" the goals created in its context).
    for (SubgoalId id : batch.subgoals) tables_->Dispose(id);
  } else {
    // Publication: the release stores make every answer inserted above
    // visible to any thread that later acquires the state.
    TableSpace::Perturb("batch.publish");
    for (SubgoalId id : batch.subgoals) {
      tables_->subgoal(id).state.store(SubgoalState::kComplete,
                                       std::memory_order_release);
    }
    tables_->NotifyCompletion();
  }
  --open_batches_;
  FoldStats();
  *has_answer = answered;
  *root_out = root;
  return status;
}

Status Evaluator::Complete(Word goal, FunctorId functor, bool existential,
                           const AnswerTable** table, bool* has_answer) {
  TermStore* store = machine_->store();
  if (InBatch()) {
    // In-batch: once this batch owns the callee's shards, an incomplete
    // table seen here can only belong to this thread's own (enclosing)
    // batch — a genuine stratification violation, never another session's
    // in-flight work. The paper's tfindall would suspend until completion;
    // under local scheduling that would deadlock, so it is reported too.
    Status st = EnsureOwnedForCall(functor);
    if (!st.ok()) return st;
    SubgoalId id = tables_->Lookup(*store, goal);
    if (id == kNoSubgoal || tables_->NeedsReevaluation(id)) {
      st = EvaluateToCompletion(goal, functor, existential, has_answer, &id);
      if (!st.ok()) return st;
    } else if (tables_->subgoal(id).state_acquire() !=
               SubgoalState::kComplete) {
      return StratificationFailure(
          machine_, functor,
          "tnot/tfindall over an incomplete table: the program is not "
          "modularly stratified");
    } else {
      *has_answer = !tables_->subgoal(id).table()->empty();
    }
    // The caller's result depends on the completed table (disposed after an
    // existential abort; the edge is skipped there).
    const Subgoal& sg = tables_->subgoal(id);
    SubgoalId caller = CurrentSubgoal();
    if (caller != kNoSubgoal && sg.state_acquire() == SubgoalState::kComplete) {
      tables_->AddDependent(id, caller);
    }
    *table = sg.table();
    return Status::Ok();
  }

  // Top level: evaluate while owning the call's shard reach mask. A
  // contended mid-batch escalation unwinds back here and restarts under the
  // full mask (coarse fallback). A deferrable query gives way instead of
  // waiting for busy shards, before it touches any table.
  for (bool coarse = false;;) {
    owned_shards_ = coarse || tables_->clear_pending()
                        ? kAllEvalShards
                        : ReachMask(functor, goal);
    if (!coarse && MayDefer()) {
      if (!tables_->TryAcquireShards(owned_shards_)) {
        owned_shards_ = 0;
        return Deferred();
      }
      TableSpace::Perturb("shards.acquired");
    } else {
      tables_->AcquireShards(owned_shards_);
    }
    if (owned_shards_ == kAllEvalShards && tables_->clear_pending()) {
      tables_->Clear();
    }
    SubgoalId id = tables_->Lookup(*store, goal);
    Status st = Status::Ok();
    if (id == kNoSubgoal || tables_->NeedsReevaluation(id)) {
      st = EvaluateToCompletion(goal, functor, existential, has_answer, &id);
    } else {
      *has_answer = !tables_->subgoal(id).table()->empty();
    }
    if (st.ok()) {
      if (owned_shards_ != kAllEvalShards) {
        ++tables_->stats().parallel_batches;
      }
      // Capture the published table pointer *before* releasing the shards:
      // once they are gone another session may dispose the subgoal and
      // swap in a fresh empty table. The captured snapshot stays readable —
      // epoch reclamation keeps a concurrently retired table alive.
      *table = tables_->subgoal(id).table();
    }
    tables_->ReleaseShards(owned_shards_);
    owned_shards_ = 0;
    if (st.code() != ErrorCode::kRetryEvaluation || coarse) return st;
    coarse = true;
    ++tables_->stats().coarse_fallbacks;
  }
}

Result<bool> Evaluator::CompleteTable(Machine* machine, Word goal,
                                      bool existential) {
  std::optional<FunctorId> functor =
      Program::CallableFunctor(*machine->store(), goal);
  const Predicate* pred =
      functor.has_value() ? machine->program()->Lookup(*functor) : nullptr;
  if (pred == nullptr || !pred->tabled()) {
    return TypeError(
        "tnot/e_tnot/tfindall need a call to a tabled predicate; use \\+ "
        "or findall/3 for other goals");
  }
  const AnswerTable* table = nullptr;
  bool has_answer = false;
  Status st = Complete(goal, *functor, existential, &table, &has_answer);
  if (!st.ok()) return st;
  return has_answer;
}

bool Evaluator::AbolishTableCall(Machine* machine, Word goal) {
  TermStore* store = machine->store();
  std::optional<FunctorId> functor = Program::CallableFunctor(*store, goal);
  ShardMask need =
      functor.has_value() ? ReachMask(*functor, goal) : kAllEvalShards;
  if (!InBatch()) {
    ShardLease lease(tables_, need);
    SubgoalId id = tables_->Lookup(*store, goal);
    if (id == kNoSubgoal) return false;
    // Owning the shard, an incomplete table can only be a leftover of this
    // thread; defensively refuse (matches the documented mid-batch no-op).
    if (tables_->subgoal(id).state_acquire() == SubgoalState::kIncomplete) {
      return false;
    }
    tables_->Dispose(id);
    return true;
  }
  // Mid-batch abolish is best-effort: widen ownership without blocking and
  // report failure (no-op) when the shards are contended.
  if (!EnsureOwnedForCall(functor.value_or(0)).ok()) return false;
  SubgoalId id = tables_->Lookup(*store, goal);
  if (id == kNoSubgoal) return false;
  // A table mid-evaluation belongs to a live batch; pulling it out would
  // corrupt the batch, so abolishing it is a no-op.
  if (tables_->subgoal(id).state_acquire() == SubgoalState::kIncomplete) {
    return false;
  }
  tables_->Dispose(id);
  return true;
}

TabledCallHandler::TableState Evaluator::GetTableState(Machine* machine,
                                                       Word goal) {
  // Entirely lock-free: Lookup is an advisory probe and the state/invalid
  // reads are the published atomics — the result is a consistent snapshot
  // of one instant, which is all table_state/2 ever promised.
  TermStore* store = machine->store();
  SubgoalId id = tables_->Lookup(*store, goal);
  if (id == kNoSubgoal || tables_->clear_pending()) {
    return TableState::kNoTable;
  }
  const Subgoal& sg = tables_->subgoal(id);
  switch (sg.state_acquire()) {
    case SubgoalState::kIncomplete:
      return TableState::kIncomplete;
    case SubgoalState::kComplete:
      return sg.invalid_acquire() ? TableState::kInvalid
                                  : TableState::kComplete;
    case SubgoalState::kDisposed:
      break;  // disposed tables are unreachable via Lookup; be safe
  }
  return TableState::kNoTable;
}

TabledCallHandler::TableStatsInfo Evaluator::GetTableStats(Machine* machine,
                                                           Word goal) {
  // The byte walks need a quiescent space (they read non-atomic capacity
  // fields), so stats take every shard. At top level that blocks until
  // running batches drain; mid-batch the widening is try-only and on
  // contention the walk degrades gracefully: counters and the mutex-guarded
  // aggregate walks stay exact, byte totals report 0.
  ShardMask added = kAllEvalShards & ~owned_shards_;
  bool exclusive;
  if (!InBatch()) {
    tables_->AcquireShards(added);
    exclusive = true;
  } else {
    exclusive = tables_->TryAcquireShards(added);
    if (!exclusive) added = 0;
  }
  FoldStats();
  TableStatsInfo info;
  info.answers_inserted = tables_->stats().answers_inserted;
  info.interned_terms = tables_->interns().num_terms();
  info.call_trie_nodes = tables_->call_trie_nodes();
  info.factored_saved_bytes =
      tables_->stats().factored_cells_saved * sizeof(Word);
  info.shared_table_hits = tables_->stats().shared_table_hits;
  info.waits_on_inprogress = tables_->stats().waits_on_inprogress;
  info.epochs_retired = tables_->stats().epochs_retired;
  info.coarse_fallbacks = tables_->stats().coarse_fallbacks;
  info.mode_violations = tables_->stats().mode_violations;
  info.subsumed_dropped = tables_->stats().subsumed_dropped;
  info.subsumed_replaced = tables_->stats().subsumed_replaced;
  if (goal == 0) {
    // Aggregate over the whole table space.
    info.found = true;
    info.subgoals = tables_->num_subgoals();
    info.answers = tables_->total_answers();
    info.trie_nodes = tables_->total_trie_nodes();
    info.bytes = exclusive ? tables_->table_bytes() : 0;
    if (added != 0) tables_->ReleaseShards(added);
    return info;
  }
  TermStore* store = machine->store();
  SubgoalId id = tables_->Lookup(*store, goal);
  if (id != kNoSubgoal) {
    const Subgoal& sg = tables_->subgoal(id);
    info.found = true;
    info.subgoals = 1;
    info.answers = sg.table()->live_size();
    info.trie_nodes = sg.table()->trie_nodes();
    info.bytes = exclusive ? sg.table()->bytes() : 0;
  }
  if (added != 0) tables_->ReleaseShards(added);
  return info;
}

}  // namespace xsb

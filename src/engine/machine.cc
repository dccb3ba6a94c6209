#include "engine/machine.h"

#include "engine/builtins.h"
#include "tabling/table_space.h"

namespace xsb {

Machine::Machine(TermStore* store, Program* program)
    : store_(store),
      program_(program),
      builtins_(std::make_unique<BuiltinRegistry>(store->symbols())) {
  SymbolTable* symbols = store->symbols();
  auto f = [&](const char* name, int arity) {
    return symbols->InternFunctor(symbols->InternAtom(name), arity);
  };
  f_comma_ = f(",", 2);
  f_semicolon_ = f(";", 2);
  f_arrow_ = f("->", 2);
  f_naf_ = f("\\+", 1);
  f_cut_ = f("!", 0);
  f_tcut_ = f("tcut", 0);
  f_true_ = f("true", 0);
  f_fail_ = f("fail", 0);
  f_false_ = f("false", 0);
  f_ite_commit_ = f("$ite_commit", 1);
  f_tabled_answer_ = f("$tabled_answer", 2);
  f_tnot_ = f("tnot", 1);
  f_e_tnot_ = f("e_tnot", 1);
  f_tfindall_ = f("tfindall", 3);
  f_findall_ = f("findall", 3);
  f_resolve_clauses_ = f("$resolve_clauses", 1);
  fail_goal_ = AtomCell(symbols->InternAtom("fail"));
  true_atom_ = AtomCell(symbols->truth());
}

Machine::~Machine() = default;

void Machine::NextGoalChunk() {
  if (arena_chunks_in_use_ == goal_chunks_.size()) {
    goal_chunks_.push_back(
        std::make_unique_for_overwrite<GoalNode[]>(kGoalChunk));
  }
  ++arena_chunks_in_use_;
  arena_used_ = 0;
}

void Machine::CutTo(size_t depth) {
  if (cps_.size() > depth) cps_.resize(depth);
}

bool Machine::PushAnswerChoices(Word goal, const AnswerTable* table,
                                const GoalNode* cont) {
  // Unify the call template against the goal once, here, *before* capturing
  // the choice point's marks. The goal is a variant of the template (that
  // is how the table was found), so this only hands each template variable
  // the goal subterm it meets; those are parked in consecutive heap cells
  // below the marks, where per-answer backtracking keeps them. Each answer
  // then needs only its bindings unified — the ground call skeleton is
  // never decoded again.
  const FlatTerm& tmpl = table->call_template();
  size_t trail_mark = store_->TrailMark();
  size_t heap_mark = store_->HeapMark();
  template_scratch_.assign(tmpl.num_vars, kNoVar);
  size_t pos = 0;
  if (!UnifyTokens(store_, nullptr, tmpl.cells.data(), &pos, goal,
                   &template_scratch_)) {
    store_->UndoTrail(trail_mark);
    store_->TruncateHeap(heap_mark);
    return false;
  }
  ChoicePoint cp;
  cp.kind = ChoiceKind::kAnswers;
  cp.cont = cont;
  cp.goal = goal;
  cp.table = table;
  cp.template_vars = store_->HeapMark();
  for (Word v : template_scratch_) {
    Word cell = store_->MakeVar();
    if (v != kNoVar) store_->At(PayloadOf(cell)) = v;
  }
  cp.trail_mark = store_->TrailMark();
  cp.heap_mark = store_->HeapMark();
  cps_.push_back(std::move(cp));
  ++stats_.choice_points;
  return true;
}

void Machine::PushClauseChoices(Predicate* pred, Word goal, Word body,
                                const GoalNode* cont) {
  ChoicePoint cp;
  cp.kind = ChoiceKind::kClauses;
  cp.cont = cont;
  cp.trail_mark = store_->TrailMark();
  cp.heap_mark = store_->HeapMark();
  cp.goal = goal;
  cp.pred = pred;
  cp.candidates = pred->Candidates(*store_, goal);
  cp.body = body;
  cps_.push_back(std::move(cp));
  ++stats_.choice_points;
}

void Machine::PushBetweenChoices(Word var, int64_t low, int64_t high,
                                 const GoalNode* cont) {
  ChoicePoint cp;
  cp.kind = ChoiceKind::kBetween;
  cp.cont = cont;
  cp.trail_mark = store_->TrailMark();
  cp.heap_mark = store_->HeapMark();
  cp.goal = var;
  cp.next_value = low;
  cp.max_value = high;
  cps_.push_back(std::move(cp));
  ++stats_.choice_points;
}

void Machine::PushPendingGoal(Word goal) {
  pending_goals_.emplace_back(goal, false);
}

void Machine::PushPendingGoalOpaqueCut(Word goal) {
  pending_goals_.emplace_back(goal, true);
}

bool Machine::UnifyHead(const Clause& clause, Word head, size_t* pos) {
  clause_vars_.assign(clause.term.num_vars, kNoVar);
  *pos = clause.head_pos;
  return UnifyTokens(store_, nullptr, clause.term.cells.data(), pos, head,
                     &clause_vars_);
}

bool Machine::MatchClause(const Clause& clause, Word head, Word body) {
  size_t pos;
  if (!UnifyHead(clause, head, &pos)) return false;
  if (body == kNoVar) return true;
  if (!clause.is_rule) return store_->Unify(body, true_atom_);
  // The body follows the head in the stored clause.
  return UnifyTokens(store_, nullptr, clause.term.cells.data(), &pos, body,
                     &clause_vars_);
}

bool Machine::TryClause(const ChoicePoint& cp, const Clause& clause,
                        uint32_t entry_depth, const GoalNode** new_goals) {
  if (cp.body != kNoVar) {  // clause/2
    if (!MatchClause(clause, cp.goal, cp.body)) return false;
    *new_goals = cp.cont;
    return true;
  }
  ++stats_.head_unifications;
  // The body is built only once the head has matched.
  size_t pos;
  if (!UnifyHead(clause, cp.goal, &pos)) return false;
  if (!clause.is_rule) {
    *new_goals = cp.cont;
  } else {
    Word body = BuildTokens(store_, nullptr, clause.term.cells.data(), &pos,
                            &clause_vars_);
    *new_goals = Cons(body, cp.cont, entry_depth);
  }
  return true;
}

bool Machine::Backtrack(size_t base_cp, const GoalNode** goals) {
  while (cps_.size() > base_cp) {
    ChoicePoint& cp = cps_.back();
    store_->UndoTrail(cp.trail_mark);
    store_->TruncateHeap(cp.heap_mark);
    switch (cp.kind) {
      case ChoiceKind::kClauses: {
        uint32_t entry_depth = static_cast<uint32_t>(cps_.size() - 1);
        while (cp.next_candidate < cp.candidates.size()) {
          const Clause& clause =
              cp.pred->clause(cp.candidates[cp.next_candidate++]);
          if (clause.erased) continue;
          if (TryClause(cp, clause, entry_depth, goals)) return true;
          store_->UndoTrail(cp.trail_mark);
          store_->TruncateHeap(cp.heap_mark);
        }
        cps_.pop_back();
        continue;
      }
      case ChoiceKind::kDisjunction: {
        Word alternative = cp.alternative;
        const GoalNode* cont = cp.cont;
        uint32_t cut_depth = cp.cut_depth;
        cps_.pop_back();
        *goals = Cons(alternative, cont, cut_depth);
        return true;
      }
      case ChoiceKind::kAnswers: {
        if (NextAnswer(cp)) {
          *goals = cp.cont;
          return true;
        }
        cps_.pop_back();
        continue;
      }
      case ChoiceKind::kBetween: {
        if (cp.next_value <= cp.max_value) {
          Word v = IntCell(cp.next_value++);
          if (store_->Unify(cp.goal, v)) {
            *goals = cp.cont;
            return true;
          }
          store_->UndoTrail(cp.trail_mark);
          store_->TruncateHeap(cp.heap_mark);
          continue;
        }
        cps_.pop_back();
        continue;
      }
    }
  }
  return false;
}

bool Machine::NextAnswer(ChoicePoint& cp) {
  while (cp.next_answer < cp.table->size()) {
    // Answer subsumption: an answer retired by a better one is skipped, not
    // returned. The cursor itself stays valid.
    if (!cp.table->live(cp.next_answer)) {
      ++cp.next_answer;
      continue;
    }
    if (cp.deliver != nullptr && !(*cp.deliver)()) break;
    size_t i = cp.next_answer++;
    if (cp.cursor != nullptr) *cp.cursor = cp.next_answer;
    // Factored return: each template variable is unified with its binding
    // straight from the stored answer.
    if (cp.table->UnifyBindings(i, store_, cp.template_vars)) {
      ++stats_.factored_answer_returns;
      return true;
    }
    store_->UndoTrail(cp.trail_mark);
    store_->TruncateHeap(cp.heap_mark);
  }
  if (cp.cursor != nullptr) *cp.cursor = cp.next_answer;
  return false;
}

Word Machine::FirstOrderGoal(Word goal, Word head, FunctorId fo) {
  int arity = store_->symbols()->FunctorArity(fo);
  if (arity == 0) return head;
  Word fo_goal = store_->MakeStructUninit(fo);
  for (int i = 0; i < arity; ++i) {
    store_->SetArg(fo_goal, i, store_->Arg(goal, i + 1));
  }
  return fo_goal;
}

Machine::StepResult Machine::UnknownPredicate(AtomId name, int arity) {
  SymbolTable* symbols = store_->symbols();
  SetError(ExistenceError("unknown predicate " + symbols->AtomName(name) +
                          "/" + std::to_string(arity)));
  return StepResult::kError;
}

FunctorId Machine::GoalFunctor(Word goal) const {
  return IsAtom(goal) ? store_->symbols()->FindFunctor(AtomOf(goal), 0)
                      : store_->StructFunctor(goal);
}

Machine::StepResult Machine::CallUserPredicate(Word goal, FunctorId functor,
                                               const GoalNode* cont,
                                               uint32_t cut_depth,
                                               bool force_clause_resolution) {
  ++stats_.user_calls;
  if (has_counted_functor_ && functor == counted_functor_) {
    ++stats_.counted_calls;
  }
  Predicate* pred = program_->Lookup(functor);

  if (!force_clause_resolution && pred != nullptr && pred->tabled() &&
      !ignore_tabling_) {
    if (handler_ == nullptr) {
      SetError(InvalidError(
          "call to tabled predicate without a tabling evaluator"));
      return StepResult::kError;
    }
    switch (handler_->OnTabledCall(this, goal, functor, cont)) {
      case TabledCallHandler::CallOutcome::kFail:
      case TabledCallHandler::CallOutcome::kContinue:
        // Either the branch is suspended/failed, or an answer choice point
        // was pushed; both proceed through the backtracker.
        return StepResult::kBacktrack;
      case TabledCallHandler::CallOutcome::kError:
        return StepResult::kError;
    }
  }

  // From here on the goal resolves against clauses (this includes the
  // tabling evaluator's own $resolve_clauses episodes): tell the table
  // maintenance subsystem when the predicate is incremental, so the table
  // being computed records its dependency on these clauses.
  if (pred != nullptr) NoteClauseRead(*pred, functor);

  SymbolTable* symbols = store_->symbols();
  if (pred == nullptr || pred->num_live_clauses() == 0) {
    // HiLog runtime dispatch: apply(F, Args...) with F bound to an atom and
    // no matching hilog clauses falls back to the first-order predicate F/N.
    if (symbols->FunctorAtom(functor) == symbols->apply() &&
        symbols->FunctorArity(functor) >= 2 && IsStruct(goal)) {
      Word head = store_->Deref(store_->Arg(goal, 0));
      if (IsAtom(head)) {
        int arity = symbols->FunctorArity(functor) - 1;
        FunctorId fo = symbols->FindFunctor(AtomOf(head), arity);
        if (fo == SymbolTable::kNoFunctor) {
          return UnknownPredicate(AtomOf(head), arity);
        }
        return CallUserPredicate(FirstOrderGoal(goal, head, fo), fo, cont,
                                 cut_depth, force_clause_resolution);
      }
    }
    if (pred == nullptr) {
      return UnknownPredicate(symbols->FunctorAtom(functor),
                              symbols->FunctorArity(functor));
    }
    return StepResult::kBacktrack;  // declared but currently empty: fail
  }

  PushClauseChoices(pred, goal, /*body=*/kNoVar, cont);
  return StepResult::kBacktrack;  // enter the new choice point
}

Machine::StepResult Machine::DispatchGoal(const GoalNode** goals) {
  const GoalNode* node = *goals;
  Word goal = store_->Deref(node->goal);
  ++goals_dispatched_;

  if (IsRef(goal)) {
    SetError(InstantiationError("call to an unbound variable"));
    return StepResult::kError;
  }
  if (IsInt(goal)) {
    SetError(TypeError("integers are not callable"));
    return StepResult::kError;
  }

  FunctorId functor = GoalFunctor(goal);
  if (functor == SymbolTable::kNoFunctor) {
    return UnknownPredicate(AtomOf(goal), 0);
  }
  SymbolTable* symbols = store_->symbols();

  // --- Control constructs ----------------------------------------------------
  if (functor == f_true_) {
    *goals = node->next;
    return StepResult::kAdvance;
  }
  if (functor == f_comma_) {
    Word a = store_->Arg(goal, 0);
    Word b = store_->Arg(goal, 1);
    *goals = Cons(a, Cons(b, node->next, node->cut_depth), node->cut_depth);
    return StepResult::kAdvance;
  }
  if (functor == f_fail_ || functor == f_false_) {
    return StepResult::kBacktrack;
  }
  if (functor == f_cut_ || functor == f_tcut_) {
    // tcut/0 (section 4.4) prunes like '!'; freeing the tables it cuts over
    // is only done when provably safe, which under local scheduling is the
    // existential-negation path inside the evaluator. Here it is a cut.
    CutTo(node->cut_depth);
    *goals = node->next;
    return StepResult::kAdvance;
  }
  if (functor == f_semicolon_ || functor == f_arrow_) {
    Word condition = 0;
    Word then_goal = 0;
    Word else_goal = 0;
    bool is_ite = false;
    if (functor == f_arrow_) {
      is_ite = true;
      condition = store_->Arg(goal, 0);
      then_goal = store_->Arg(goal, 1);
      else_goal = fail_goal_;
    } else {
      Word left = store_->Deref(store_->Arg(goal, 0));
      else_goal = store_->Arg(goal, 1);
      if (IsStruct(left) && store_->StructFunctor(left) == f_arrow_) {
        is_ite = true;
        condition = store_->Arg(left, 0);
        then_goal = store_->Arg(left, 1);
      } else {
        condition = left;  // plain disjunction
      }
    }
    ChoicePoint cp;
    cp.kind = ChoiceKind::kDisjunction;
    cp.cont = node->next;
    cp.trail_mark = store_->TrailMark();
    cp.heap_mark = store_->HeapMark();
    cp.alternative = else_goal;
    cp.cut_depth = node->cut_depth;
    cps_.push_back(std::move(cp));
    ++stats_.choice_points;
    if (is_ite) {
      size_t cp_index = cps_.size() - 1;
      Word commit = store_->MakeStruct(
          f_ite_commit_, {IntCell(static_cast<int64_t>(cp_index))});
      // The condition gets a local cut barrier; Then is cut-transparent.
      const GoalNode* rest = Cons(then_goal, node->next, node->cut_depth);
      rest = Cons(commit, rest, node->cut_depth);
      *goals = Cons(condition, rest, static_cast<uint32_t>(cps_.size()));
    } else {
      *goals = Cons(condition, node->next, node->cut_depth);
    }
    return StepResult::kAdvance;
  }
  if (functor == f_ite_commit_) {
    int64_t cp_index = IntValue(store_->Deref(store_->Arg(goal, 0)));
    CutTo(static_cast<size_t>(cp_index));
    *goals = node->next;
    return StepResult::kAdvance;
  }
  if (functor == f_naf_) {
    size_t trail_mark = store_->TrailMark();
    size_t heap_mark = store_->HeapMark();
    bool found = false;
    const GoalNode* sub = Cons(store_->Arg(goal, 0), nullptr,
                               static_cast<uint32_t>(cps_.size()));
    Status status = Run(sub, [&found]() {
      found = true;
      return SolveAction::kStop;
    });
    store_->UndoTrail(trail_mark);
    store_->TruncateHeap(heap_mark);
    if (!status.ok()) {
      SetError(status);
      return StepResult::kError;
    }
    if (found) return StepResult::kBacktrack;
    *goals = node->next;
    return StepResult::kAdvance;
  }
  if (functor == f_tnot_ || functor == f_e_tnot_ || functor == f_tfindall_) {
    // All three complete the callee's table first. Negation then tests it
    // for an answer; tfindall(T, G, L) continues as findall(T, G, L), whose
    // call of G is served from the completed table.
    bool negation = functor != f_tfindall_;
    if (handler_ == nullptr) {
      SetError(InvalidError(
          "tnot/e_tnot/tfindall require the tabling evaluator"));
      return StepResult::kError;
    }
    Word callee = store_->Deref(store_->Arg(goal, negation ? 0 : 1));
    if (negation && !store_->IsGround(callee)) {
      SetError(InstantiationError(
          "tnot/e_tnot on a non-ground goal: the query flounders"));
      return StepResult::kError;
    }
    Result<bool> answered =
        handler_->CompleteTable(this, callee, functor == f_e_tnot_);
    if (!answered.ok()) {
      SetError(answered.status());
      return StepResult::kError;
    }
    if (!negation) {
      Word findall = store_->MakeStruct(
          f_findall_, {store_->Arg(goal, 0), callee, store_->Arg(goal, 2)});
      *goals = Cons(findall, node->next, node->cut_depth);
      return StepResult::kAdvance;
    }
    if (answered.value()) return StepResult::kBacktrack;
    *goals = node->next;
    return StepResult::kAdvance;
  }
  if (functor == f_tabled_answer_) {
    if (handler_ == nullptr) {
      SetError(InvalidError("orphan $tabled_answer"));
      return StepResult::kError;
    }
    int64_t index = IntValue(store_->Deref(store_->Arg(goal, 0)));
    switch (handler_->OnTabledAnswer(this, index, store_->Arg(goal, 1))) {
      case TabledCallHandler::CallOutcome::kFail:
        return StepResult::kBacktrack;
      case TabledCallHandler::CallOutcome::kContinue:
        *goals = node->next;
        return StepResult::kAdvance;
      case TabledCallHandler::CallOutcome::kError:
        return StepResult::kError;
    }
  }
  if (functor == f_resolve_clauses_) {
    // The argument is a tabled call the evaluator built, so its functor
    // exists.
    Word inner = store_->Deref(store_->Arg(goal, 0));
    return CallUserPredicate(inner, GoalFunctor(inner), node->next,
                             node->cut_depth,
                             /*force_clause_resolution=*/true);
  }

  // --- HiLog bridge ------------------------------------------------------------
  // apply(F, Args...) where F is an atom NOT declared hilog is the same goal
  // as the first-order F(Args...): rewrite before tabling/builtin dispatch,
  // so `Graph(X,Y)` with Graph = edge runs against edge/2 (section 4.7).
  if (symbols->FunctorAtom(functor) == symbols->apply() &&
      symbols->FunctorArity(functor) >= 2 && IsStruct(goal)) {
    Word head = store_->Deref(store_->Arg(goal, 0));
    if (IsAtom(head) && !program_->IsHilogAtom(AtomOf(head))) {
      int arity = symbols->FunctorArity(functor) - 1;
      FunctorId fo = symbols->FindFunctor(AtomOf(head), arity);
      if (fo == SymbolTable::kNoFunctor) {
        return UnknownPredicate(AtomOf(head), arity);
      }
      *goals = Cons(FirstOrderGoal(goal, head, fo), node->next,
                    node->cut_depth);
      return StepResult::kAdvance;
    }
  }

  // --- Builtins ----------------------------------------------------------------
  BuiltinFn builtin = builtins_->Find(functor);
  if (builtin != nullptr) {
    ++stats_.builtin_calls;
    pending_goals_.clear();
    BuiltinResult result = builtin(*this, goal, node);
    switch (result) {
      case BuiltinResult::kTrue: {
        const GoalNode* g = node->next;
        for (auto it = pending_goals_.rbegin(); it != pending_goals_.rend();
             ++it) {
          uint32_t cut_depth = it->second
                                   ? static_cast<uint32_t>(cps_.size())
                                   : node->cut_depth;
          g = Cons(it->first, g, cut_depth);
        }
        pending_goals_.clear();
        *goals = g;
        return StepResult::kAdvance;
      }
      case BuiltinResult::kFail:
        return StepResult::kBacktrack;
      case BuiltinResult::kError:
        return StepResult::kError;
    }
  }

  // --- User predicates -----------------------------------------------------------
  return CallUserPredicate(goal, functor, node->next, node->cut_depth,
                           /*force_clause_resolution=*/false);
}

Status Machine::Run(const GoalNode* goals, const SolutionFn& on_solution) {
  return RunFrom(cps_.size(), goals, on_solution);
}

Status Machine::RunAnswers(Word goal, const AnswerTable* table,
                           size_t* cursor, const GoalNode* cont,
                           const std::function<bool()>& deliver) {
  size_t base_cp = cps_.size();
  if (!PushAnswerChoices(goal, table, cont)) {
    *cursor = table->size();  // no answer can unify with `goal`
    return Status::Ok();
  }
  ChoicePoint& cp = cps_.back();
  cp.next_answer = *cursor;
  cp.cursor = cursor;
  cp.deliver = &deliver;
  // Enter the choice point: its first answer starts the loop, which then
  // backtracks into it for each further answer.
  const GoalNode* g = nullptr;
  if (!Backtrack(base_cp, &g)) return Status::Ok();
  static const SolutionFn kIgnore = []() { return SolveAction::kContinue; };
  return RunFrom(base_cp, g, kIgnore);
}

Status Machine::RunFrom(size_t base_cp, const GoalNode* goals,
                        const SolutionFn& on_solution) {
  const GoalNode* g = goals;
  bool saved_stop = stop_requested_;
  stop_requested_ = false;

  while (true) {
    if (stop_requested_) {
      stop_requested_ = saved_stop;
      CutTo(base_cp);
      return Status::Ok();
    }
    if (g == nullptr) {
      SolveAction action = on_solution();
      if (stop_requested_ || action == SolveAction::kStop) {
        stop_requested_ = saved_stop;
        CutTo(base_cp);
        return Status::Ok();
      }
      if (!Backtrack(base_cp, &g)) {
        stop_requested_ = saved_stop;
        return Status::Ok();
      }
      continue;
    }
    StepResult step = DispatchGoal(&g);
    switch (step) {
      case StepResult::kAdvance:
        continue;
      case StepResult::kBacktrack:
        // A stop requested by this step ends the run before the next
        // alternative is entered (an answer choice point would already
        // advance its cursor).
        if (stop_requested_) continue;
        if (!Backtrack(base_cp, &g)) {
          stop_requested_ = saved_stop;
          return Status::Ok();
        }
        continue;
      case StepResult::kError: {
        Status status = error_;
        error_ = Status::Ok();
        CutTo(base_cp);
        stop_requested_ = saved_stop;
        return status;
      }
      default:
        continue;
    }
  }
}

Status Machine::Solve(Word goal, const SolutionFn& on_solution) {
  const GoalNode* g = Cons(goal, nullptr, static_cast<uint32_t>(cps_.size()));
  return Run(g, on_solution);
}

Result<bool> Machine::SolveOnce(Word goal) {
  bool found = false;
  Status status = Solve(goal, [&found]() {
    found = true;
    return SolveAction::kStop;
  });
  if (!status.ok()) return status;
  return found;
}

Result<size_t> Machine::CountSolutions(Word goal) {
  size_t trail_mark = store_->TrailMark();
  size_t heap_mark = store_->HeapMark();
  size_t count = 0;
  Status status = Solve(goal, [&count]() {
    ++count;
    return SolveAction::kContinue;
  });
  store_->UndoTrail(trail_mark);
  store_->TruncateHeap(heap_mark);
  if (!status.ok()) return status;
  return count;
}

Result<std::vector<FlatTerm>> Machine::FindAll(Word templ, Word goal) {
  size_t trail_mark = store_->TrailMark();
  size_t heap_mark = store_->HeapMark();
  std::vector<FlatTerm> out;
  Status status = Solve(goal, [&]() {
    // Flatten into the persistent scratch (no growth reallocations once it
    // is warm), then copy out at exact size — one allocation per instance.
    if (FlattenInto(*store_, templ, &findall_scratch_)) {
      ++stats_.findall_flatten_reuses;
    }
    out.push_back(findall_scratch_);
    return SolveAction::kContinue;
  });
  store_->UndoTrail(trail_mark);
  store_->TruncateHeap(heap_mark);
  if (!status.ok()) return status;
  return out;
}

Result<int64_t> Machine::EvalArith(Word expression) {
  Word e = store_->Deref(expression);
  if (IsInt(e)) return IntValue(e);
  if (IsRef(e)) {
    return InstantiationError("arithmetic on an unbound variable");
  }
  SymbolTable* symbols = store_->symbols();
  if (IsStruct(e)) {
    FunctorId f = store_->StructFunctor(e);
    const std::string& name = symbols->AtomName(symbols->FunctorAtom(f));
    int arity = symbols->FunctorArity(f);
    if (arity == 1) {
      Result<int64_t> a = EvalArith(store_->Arg(e, 0));
      if (!a.ok()) return a;
      int64_t x = a.value();
      if (name == "-") return -x;
      if (name == "+") return x;
      if (name == "abs") return x < 0 ? -x : x;
      if (name == "sign") return x > 0 ? 1 : (x < 0 ? -1 : 0);
      if (name == "\\") return ~x;
      return TypeError("unknown arithmetic function " + name + "/1");
    }
    if (arity == 2) {
      Result<int64_t> a = EvalArith(store_->Arg(e, 0));
      if (!a.ok()) return a;
      Result<int64_t> b = EvalArith(store_->Arg(e, 1));
      if (!b.ok()) return b;
      int64_t x = a.value();
      int64_t y = b.value();
      if (name == "+") return x + y;
      if (name == "-") return x - y;
      if (name == "*") return x * y;
      if (name == "//" || name == "/") {
        if (y == 0) return TypeError("zero divisor");
        return x / y;
      }
      if (name == "mod") {
        if (y == 0) return TypeError("zero divisor");
        int64_t m = x % y;
        if (m != 0 && ((m < 0) != (y < 0))) m += y;
        return m;
      }
      if (name == "rem") {
        if (y == 0) return TypeError("zero divisor");
        return x % y;
      }
      if (name == "min") return x < y ? x : y;
      if (name == "max") return x > y ? x : y;
      if (name == ">>") return x >> y;
      if (name == "<<") return x << y;
      if (name == "/\\") return x & y;
      if (name == "\\/") return x | y;
      if (name == "xor") return x ^ y;
      if (name == "**" || name == "^") {
        int64_t r = 1;
        for (int64_t i = 0; i < y; ++i) r *= x;
        return r;
      }
      return TypeError("unknown arithmetic function " + name + "/2");
    }
  }
  return TypeError("bad arithmetic expression");
}

}  // namespace xsb

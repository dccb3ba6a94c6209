#include "probe.h"

#include <algorithm>
#include <functional>

#include "parser/reader.h"
#include "parser/writer.h"

namespace perfbench {

using xsb::Engine;
using xsb::Status;
using xsb::Word;

namespace {

std::string FirstBinding(const xsb::Answer& answer) {
  return answer.bindings.empty() ? std::string() : answer.bindings[0].second;
}

}  // namespace

Status CollectForEach(Engine* engine, std::string_view goal,
                      std::vector<std::string>* values) {
  return engine->ForEach(goal, [values](const xsb::Answer& answer) {
    values->push_back(FirstBinding(answer));
    return true;
  });
}

Status TracedForEach(Engine* engine, std::string_view goal,
                     std::vector<std::string>* values, Tracer* tracer,
                     int parent, uint32_t op) {
  xsb::TermStore& store = engine->store();
  xsb::Program& program = engine->program();
  std::string buffer(goal);
  buffer += " .";
  int read = tracer->Begin(Tracer::kRead, parent, op);
  xsb::Reader reader(&store, program.ops(), buffer, program.hilog_atoms());
  xsb::Result<Word> parsed = reader.ReadClause();
  tracer->End(read);
  if (!parsed.ok()) return parsed.status();
  std::vector<std::pair<std::string, Word>> names = reader.var_names();

  size_t trail = store.TrailMark();
  size_t heap = store.HeapMark();
  int solve = tracer->Begin(Tracer::kSolve, parent, op);
  Status status = engine->machine().Solve(parsed.value(), [&]() {
    int render = tracer->Begin(Tracer::kRender, solve, op);
    xsb::Answer answer;
    answer.bindings.reserve(names.size());
    for (const auto& [name, cell] : names) {
      answer.bindings.emplace_back(name,
                                   WriteTerm(store, *program.ops(), cell));
    }
    values->push_back(FirstBinding(answer));
    tracer->End(render);
    return xsb::SolveAction::kContinue;
  });
  tracer->End(solve);
  store.UndoTrail(trail);
  store.TruncateHeap(heap);
  // Engine::ForEach releases retired answer tables when the outermost query
  // ends; every mirrored query is outermost.
  engine->evaluator().tables().ReleaseRetiredAnswers();
  return status;
}

// Applies `op` field by field.
template <typename Op>
Counters Combine(const Counters& a, const Counters& b, Op op) {
  Counters c;
  c.user_calls = op(a.user_calls, b.user_calls);
  c.choice_points = op(a.choice_points, b.choice_points);
  c.head_unifications = op(a.head_unifications, b.head_unifications);
  c.factored_returns = op(a.factored_returns, b.factored_returns);
  c.heap_words = op(a.heap_words, b.heap_words);
  c.batches = op(a.batches, b.batches);
  c.subgoals = op(a.subgoals, b.subgoals);
  c.answers_new = op(a.answers_new, b.answers_new);
  c.answers_dup = op(a.answers_dup, b.answers_dup);
  c.suspensions = op(a.suspensions, b.suspensions);
  c.resumptions = op(a.resumptions, b.resumptions);
  c.invalidated = op(a.invalidated, b.invalidated);
  c.reevaluated = op(a.reevaluated, b.reevaluated);
  c.warm_hits = op(a.warm_hits, b.warm_hits);
  c.inprogress_waits = op(a.inprogress_waits, b.inprogress_waits);
  c.parallel_batches = op(a.parallel_batches, b.parallel_batches);
  c.shard_escalations = op(a.shard_escalations, b.shard_escalations);
  c.coarse_fallbacks = op(a.coarse_fallbacks, b.coarse_fallbacks);
  return c;
}

Counters Counters::operator-(const Counters& base) const {
  return Combine(*this, base, std::minus<uint64_t>());
}

Counters& Counters::operator+=(const Counters& delta) {
  return *this = Combine(*this, delta, std::plus<uint64_t>());
}

Counters ReadCounters(const xsb::TableSpace& tables) {
  const xsb::TableStats& ts = tables.stats();
  Counters c;
  c.subgoals = ts.subgoals_created.load();
  c.answers_new = ts.answers_inserted.load();
  c.answers_dup = ts.duplicate_answers.load();
  c.suspensions = ts.consumer_suspensions.load();
  c.resumptions = ts.consumer_resumptions.load();
  c.invalidated = ts.tables_invalidated.load();
  c.reevaluated = ts.tables_reevaluated.load();
  c.warm_hits = ts.shared_table_hits.load();
  c.inprogress_waits = ts.waits_on_inprogress.load();
  c.parallel_batches = ts.parallel_batches.load();
  c.shard_escalations = ts.shard_escalations.load();
  c.coarse_fallbacks = ts.coarse_fallbacks.load();
  return c;
}

Counters ReadCounters(Engine* engine) {
  Counters c = ReadCounters(engine->evaluator().tables());
  const xsb::MachineStats& ms = engine->machine().stats();
  c.user_calls = ms.user_calls;
  c.choice_points = ms.choice_points;
  c.head_unifications = ms.head_unifications;
  c.factored_returns = ms.factored_answer_returns;
  c.heap_words = engine->store().HeapMark();
  c.batches = engine->evaluator().stats().batches;
  return c;
}

void SetEngineCounterMetrics(const Counters& d, double ops, Record* record) {
  auto per_op = [ops](uint64_t n) { return Ratio(static_cast<double>(n), ops); };
  record->Set("engine.user_calls_per_op", per_op(d.user_calls));
  record->Set("engine.choice_points_per_op", per_op(d.choice_points));
  record->Set("engine.head_unifications_per_op", per_op(d.head_unifications));
  record->Set("engine.factored_returns_per_op", per_op(d.factored_returns));
  record->Set("engine.heap_words_retained_per_op", per_op(d.heap_words));
  record->Set("tabling.batches_per_op", per_op(d.batches));
}

void SetTableCounterMetrics(const Counters& d, double ops, double updates,
                            Record* record) {
  auto per_op = [ops](uint64_t n) { return Ratio(static_cast<double>(n), ops); };
  double answers = static_cast<double>(d.answers_new);
  record->Set("tabling.subgoals_per_op", per_op(d.subgoals));
  record->Set("tabling.answers_new_per_op", per_op(d.answers_new));
  record->Set("tabling.answers_dup_per_op", per_op(d.answers_dup));
  record->Set("tabling.insert_yield",
              Ratio(answers, answers + static_cast<double>(d.answers_dup)));
  record->Set("tabling.suspensions_per_op", per_op(d.suspensions));
  record->Set("tabling.resumptions_per_op", per_op(d.resumptions));
  record->Set("tabling.resumptions_per_answer",
              Ratio(static_cast<double>(d.resumptions), answers));
  record->Set("tabling.warm_hits_per_op", per_op(d.warm_hits));
  record->Set("tabling.invalidated_per_update",
              Ratio(static_cast<double>(d.invalidated), updates));
  record->Set("tabling.reevaluated_per_update",
              Ratio(static_cast<double>(d.reevaluated), updates));
  record->Set("tabling.reeval_yield",
              Ratio(static_cast<double>(d.reevaluated),
                    static_cast<double>(d.invalidated)));
  record->Set("tabling.parallel_batches_per_op", per_op(d.parallel_batches));
  record->Set("tabling.inprogress_waits", per_op(d.inprogress_waits));
  record->Set("tabling.shard_escalations", per_op(d.shard_escalations));
  record->Set("tabling.coarse_fallbacks", per_op(d.coarse_fallbacks));
}

void ServiceDeltas::Start(xsb::QueryService* service) {
  base_ = ReadCounters(service->tables());
  stats_base_ = service->Stats();
}

void ServiceDeltas::Stop(xsb::QueryService* service) {
  counters_ += ReadCounters(service->tables()) - base_;
  xsb::QueryService::ServiceStats stats = service->Stats();
  served_.resize(stats.per_worker.size());
  for (size_t i = 0; i < served_.size(); ++i) {
    served_[i] += stats.per_worker[i].queries_served -
                  stats_base_.per_worker[i].queries_served;
  }
}

double ServiceDeltas::worker_balance() const {
  if (served_.empty()) return 0;
  auto [lo, hi] = std::minmax_element(served_.begin(), served_.end());
  return Ratio(static_cast<double>(*lo), static_cast<double>(*hi));
}

std::vector<std::string> FirstBindings(
    const std::vector<xsb::Answer>& answers) {
  std::vector<std::string> values;
  values.reserve(answers.size());
  for (const xsb::Answer& answer : answers) {
    values.push_back(FirstBinding(answer));
  }
  return values;
}

void SetTableMetrics(xsb::TableSpace* tables, Record* record) {
  xsb::ShardLease lease(tables, xsb::kAllEvalShards);
  double bytes = static_cast<double>(tables->table_bytes());
  double answer_nodes = static_cast<double>(tables->total_trie_nodes());
  double call_nodes = static_cast<double>(tables->call_trie_nodes());
  record->Set("table_mb", bytes / (1024.0 * 1024.0));
  record->Set("tabling.answer_trie_nodes", answer_nodes);
  record->Set("tabling.call_trie_nodes", call_nodes);
  record->deterministic["table_bytes"] = bytes;
  record->deterministic["answer_trie_nodes"] = answer_nodes;
  record->deterministic["call_trie_nodes"] = call_nodes;
}

void SetConsultAnalyzeMetrics(const std::string& program, int repeats,
                              Record* record) {
  std::vector<double> consult_s;
  std::vector<double> analyze_s;
  for (int i = 0; i < repeats; ++i) {
    Engine engine;
    int64_t start = NowNs();
    Status status = engine.ConsultString(program);
    double consult = SecondsSince(start);
    if (!status.ok()) record->Fail("consult: " + status.ToString());
    start = NowNs();
    engine.Analyze();
    double analyze = SecondsSince(start);
    // ConsultString runs the same analysis once at its end.
    consult_s.push_back(consult - analyze);
    analyze_s.push_back(analyze);
  }
  record->Set("db.consult_s", Median(consult_s));
  record->Set("analysis.analyze_s", Median(analyze_s));
}

void SetEngineSpanMetrics(const Tracer& tracer, double ops, double answers,
                          Record* record) {
  Tracer::Totals t = tracer.Summarize();
  record->Set("parser.read_us_per_op",
              Ratio(t.total_s[Tracer::kRead] * 1e6, ops));
  record->Set("engine.solve_self_us_per_op",
              Ratio(t.self_s[Tracer::kSolve] * 1e6, ops));
  record->Set("tabling.abolish_us_per_op",
              Ratio(t.total_s[Tracer::kAbolish] * 1e6, ops));
  record->Set("term.render_us_per_answer",
              Ratio(t.total_s[Tracer::kRender] * 1e6, answers));
  record->Set("term.render_share",
              Ratio(t.total_s[Tracer::kRender], t.total_s[Tracer::kOp]));
  record->Set("trace.unattributed_share",
              Ratio(t.self_s[Tracer::kOp], t.total_s[Tracer::kOp]));
}

}  // namespace perfbench

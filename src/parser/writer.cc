#include "parser/writer.h"

#include <cctype>
#include <unordered_map>

namespace xsb {
namespace {

bool NeedsQuotes(const std::string& name) {
  if (name.empty()) return true;
  if (name == "[]" || name == "{}" || name == "!" || name == ";") {
    return false;
  }
  if (name == ",") return true;
  if (std::islower(static_cast<unsigned char>(name[0]))) {
    for (char c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
        return true;
      }
    }
    return false;
  }
  // Symbolic atoms need no quotes.
  auto is_symbol = [](char c) {
    switch (c) {
      case '+':
      case '-':
      case '*':
      case '/':
      case '\\':
      case '^':
      case '<':
      case '>':
      case '=':
      case '~':
      case ':':
      case '.':
      case '?':
      case '@':
      case '#':
      case '&':
      case '$':
        return true;
      default:
        return false;
    }
  };
  bool all_symbols = true;
  for (char c : name) {
    if (!is_symbol(c)) {
      all_symbols = false;
      break;
    }
  }
  return !all_symbols;
}

class Writer {
 public:
  Writer(const TermStore& store, const OpTable& ops,
         const WriteOptions& options, std::string* out)
      : store_(store),
        symbols_(*store.symbols()),
        ops_(ops),
        options_(options),
        out_(*out) {}

  void Render(Word t) {
    out_.clear();
    var_ids_.clear();
    Emit(t, 1200, 0);
  }

 private:
  void EmitAtom(AtomId a) {
    const std::string& name = symbols_.AtomName(a);
    if (options_.quoted && NeedsQuotes(name)) {
      out_ += '\'';
      for (char c : name) {
        if (c == '\'' || c == '\\') out_ += '\\';
        out_ += c;
      }
      out_ += '\'';
    } else {
      out_ += name;
    }
  }

  bool IsCons(Word s) const {
    return IsStruct(s) && store_.StructArity(s) == 2 &&
           symbols_.FunctorAtom(store_.StructFunctor(s)) == symbols_.dot();
  }

  void EmitList(Word s, int depth) {
    out_ += '[';
    Emit(store_.Arg(s, 0), 999, depth + 1);
    Word tail = store_.Deref(store_.Arg(s, 1));
    while (true) {
      if (IsAtom(tail) && AtomOf(tail) == symbols_.nil()) break;
      if (IsCons(tail)) {
        out_ += ',';
        Emit(store_.Arg(tail, 0), 999, depth + 1);
        tail = store_.Deref(store_.Arg(tail, 1));
        continue;
      }
      out_ += '|';
      Emit(tail, 999, depth + 1);
      break;
    }
    out_ += ']';
  }

  void EmitArgs(Word s, int first, int arity, int depth) {
    out_ += '(';
    for (int i = first; i < arity; ++i) {
      if (i > first) out_ += ',';
      Emit(store_.Arg(s, i), 999, depth + 1);
    }
    out_ += ')';
  }

  void Emit(Word t, int max_priority, int depth) {
    t = store_.Deref(t);
    if (options_.max_depth > 0 && depth > options_.max_depth) {
      out_ += "...";
      return;
    }
    switch (TagOf(t)) {
      case Tag::kRef: {
        auto [it, inserted] = var_ids_.emplace(
            PayloadOf(t), static_cast<int>(var_ids_.size()));
        out_ += "_G" + std::to_string(it->second);
        return;
      }
      case Tag::kLocal:
        out_ += "_" + std::to_string(PayloadOf(t));
        return;
      case Tag::kInt:
        out_ += std::to_string(IntValue(t));
        return;
      case Tag::kAtom:
        EmitAtom(AtomOf(t));
        return;
      case Tag::kFunctor:
        EmitAtom(symbols_.FunctorAtom(FunctorOf(t)));
        out_ += '/';
        out_ += std::to_string(symbols_.FunctorArity(FunctorOf(t)));
        return;
      case Tag::kStruct:
        break;
    }

    FunctorId f = store_.StructFunctor(t);
    AtomId name = symbols_.FunctorAtom(f);
    int arity = symbols_.FunctorArity(f);

    if (name == symbols_.dot() && arity == 2) {
      EmitList(t, depth);
      return;
    }

    // HiLog sugar: apply(F, A1..An) prints as F(A1..An).
    if (options_.hilog_sugar && name == symbols_.apply() && arity >= 2) {
      Word functor_term = store_.Deref(store_.Arg(t, 0));
      bool needs_parens = IsStruct(functor_term) &&
                          symbols_.FunctorAtom(store_.StructFunctor(
                              functor_term)) == symbols_.apply();
      if (needs_parens) out_ += '(';
      Emit(functor_term, 0, depth + 1);
      if (needs_parens) out_ += ')';
      EmitArgs(t, 1, arity, depth);
      return;
    }

    if (options_.use_operators && arity == 2) {
      std::optional<OpDef> infix = ops_.Infix(name);
      if (infix.has_value()) {
        bool parens = infix->priority > max_priority;
        if (parens) out_ += '(';
        Emit(store_.Arg(t, 0), infix->left_max(), depth + 1);
        if (name == symbols_.comma()) {
          out_ += ",";
        } else {
          out_ += ' ';
          EmitAtom(name);
          out_ += ' ';
        }
        Emit(store_.Arg(t, 1), infix->right_max(), depth + 1);
        if (parens) out_ += ')';
        return;
      }
    }
    if (options_.use_operators && arity == 1) {
      std::optional<OpDef> prefix = ops_.Prefix(name);
      if (prefix.has_value()) {
        bool parens = prefix->priority > max_priority;
        if (parens) out_ += '(';
        EmitAtom(name);
        out_ += ' ';
        Emit(store_.Arg(t, 0), prefix->right_max(), depth + 1);
        if (parens) out_ += ')';
        return;
      }
    }

    EmitAtom(name);
    EmitArgs(t, 0, arity, depth);
  }

  const TermStore& store_;
  const SymbolTable& symbols_;
  const OpTable& ops_;
  WriteOptions options_;
  std::string& out_;
  std::unordered_map<uint64_t, int> var_ids_;
};

}  // namespace

std::string WriteTerm(const TermStore& store, const OpTable& ops, Word t,
                      const WriteOptions& options) {
  std::string out;
  WriteTermTo(store, ops, t, &out, options);
  return out;
}

void WriteTermTo(const TermStore& store, const OpTable& ops, Word t,
                 std::string* out, const WriteOptions& options) {
  Writer writer(store, ops, options, out);
  writer.Render(t);
}

std::string WriteFlat(TermStore* scratch, const OpTable& ops,
                      const FlatTerm& flat, const WriteOptions& options) {
  size_t heap_mark = scratch->HeapMark();
  size_t trail_mark = scratch->TrailMark();
  Word t = Unflatten(scratch, flat);
  std::string out = WriteTerm(*scratch, ops, t, options);
  scratch->UndoTrail(trail_mark);
  scratch->TruncateHeap(heap_mark);
  return out;
}

}  // namespace xsb

#include "term/flat.h"

#include "term/intern.h"

namespace xsb {

namespace {

// Work item of BuildTokens: heap cell `dest` receives either the next term
// of the stream (token == kFromStream) or `token` itself, an argument of an
// interned compound being expanded.
struct BuildSlot {
  uint64_t dest;
  Word token;
};
constexpr Word kFromStream = 0;  // a kRef cell: never a token

// Per-thread work stacks of the walks in this file, kept warm across calls
// so a walk allocates only when a term is deeper than any seen before. Each
// walk uses its own stack from its entry size up, so walks may nest.
struct WalkStacks {
  std::vector<Word> flatten;
  std::vector<uint64_t> flatten_vars;
  std::vector<BuildSlot> build;
  std::vector<Word> unify;
  std::vector<std::pair<Word, Word>> ground;  // (token, heap term)
  std::vector<Word> unflatten_vars;
};

WalkStacks& Stacks() {
  static thread_local WalkStacks stacks;
  return stacks;
}

// Unifies the ground token `token` (atomic or kInterned) with heap term `t`.
bool UnifyGroundToken(TermStore* store, const InternTable* interns,
                      Word token, Word t) {
  std::vector<std::pair<Word, Word>>& work = Stacks().ground;
  size_t base = work.size();
  work.emplace_back(token, t);
  while (work.size() > base) {
    auto [tk, x] = work.back();
    work.pop_back();
    Word d = store->Deref(x);
    if (IsRef(d)) {
      size_t pos = 0;
      store->Bind(d, BuildTokens(store, interns, &tk, &pos, nullptr));
      continue;
    }
    if (!IsInterned(tk)) {
      if (d != tk) {
        work.resize(base);
        return false;
      }
      continue;
    }
    InternId id = InternIdOf(tk);
    FunctorId f = interns->FunctorOfId(id);
    if (!IsStruct(d) || store->StructFunctor(d) != f) {
      work.resize(base);
      return false;
    }
    const Word* args = interns->ArgsOfId(id);
    for (int i = interns->ArityOfId(id) - 1; i >= 0; --i) {
      work.emplace_back(args[i], store->Arg(d, i));
    }
  }
  return true;
}

}  // namespace

void FlattenAppend(const TermStore& store, Word t, std::vector<Word>* out,
                   std::vector<uint64_t>* var_cells) {
  // Variable numbering by first occurrence; terms rarely have more than a
  // handful of variables, so a linear scan beats a hash map here.
  // Preorder walk. The work stack holds cells still to emit; children are
  // pushed in reverse so they pop in order.
  std::vector<Word>& work = Stacks().flatten;
  size_t base = work.size();
  work.push_back(t);
  while (work.size() > base) {
    Word x = store.Deref(work.back());
    work.pop_back();
    switch (TagOf(x)) {
      case Tag::kRef: {
        uint64_t cell = PayloadOf(x);
        uint32_t ordinal = static_cast<uint32_t>(var_cells->size());
        for (uint32_t i = 0; i < var_cells->size(); ++i) {
          if ((*var_cells)[i] == cell) {
            ordinal = i;
            break;
          }
        }
        if (ordinal == var_cells->size()) var_cells->push_back(cell);
        out->push_back(LocalCell(ordinal));
        break;
      }
      case Tag::kAtom:
      case Tag::kInt:
        out->push_back(x);
        break;
      case Tag::kStruct: {
        FunctorId f = store.StructFunctor(x);
        out->push_back(FunctorCell(f));
        int arity = store.symbols()->FunctorArity(f);
        for (int i = arity - 1; i >= 0; --i) work.push_back(store.Arg(x, i));
        break;
      }
      default:
        // kFunctor / kLocal never appear as heap terms.
        out->push_back(x);
        break;
    }
  }
}

FlatTerm Flatten(const TermStore& store, Word t) {
  FlatTerm out;
  std::vector<uint64_t> var_cells;
  FlattenAppend(store, t, &out.cells, &var_cells);
  out.num_vars = static_cast<uint32_t>(var_cells.size());
  return out;
}

bool FlattenInto(const TermStore& store, Word t, FlatTerm* out) {
  size_t cap_before = out->cells.capacity();
  out->cells.clear();
  out->num_vars = AppendFlattened(store, t, &out->cells);
  return out->cells.capacity() == cap_before;
}

uint32_t AppendFlattened(const TermStore& store, Word t,
                         std::vector<Word>* out) {
  std::vector<uint64_t>& var_cells = Stacks().flatten_vars;
  var_cells.clear();
  FlattenAppend(store, t, out, &var_cells);
  return static_cast<uint32_t>(var_cells.size());
}

Word BuildTokens(TermStore* store, const InternTable* interns,
                 const Word* tokens, size_t* pos, std::vector<Word>* vars) {
  const SymbolTable& symbols = *store->symbols();
  std::vector<BuildSlot>& work = Stacks().build;
  size_t base = work.size();
  // Allocates the struct block of a compound token and queues its argument
  // cells, first argument on top (stream order is preorder).
  auto open = [&](Word token) {
    if (IsFunctor(token)) {
      FunctorId f = FunctorOf(token);
      Word s = store->MakeStructUninit(f);
      for (int i = symbols.FunctorArity(f) - 1; i >= 0; --i) {
        work.push_back(BuildSlot{store->ArgIndex(s, i), kFromStream});
      }
      return s;
    }
    InternId id = InternIdOf(token);
    Word s = store->MakeStructUninit(interns->FunctorOfId(id));
    const Word* args = interns->ArgsOfId(id);
    for (int i = interns->ArityOfId(id) - 1; i >= 0; --i) {
      work.push_back(BuildSlot{store->ArgIndex(s, i), args[i]});
    }
    return s;
  };

  Word root = tokens[(*pos)++];
  Word result = root;
  if (IsFunctor(root) || IsInterned(root)) {
    result = open(root);
  } else if (IsLocal(root)) {
    Word& v = (*vars)[PayloadOf(root)];
    if (v == kNoVar) v = store->MakeVar();
    result = v;
  }
  while (work.size() > base) {
    BuildSlot slot = work.back();
    work.pop_back();
    Word token = slot.token == kFromStream ? tokens[(*pos)++] : slot.token;
    Word value = token;
    if (IsFunctor(token) || IsInterned(token)) {
      value = open(token);
    } else if (IsLocal(token)) {
      Word& v = (*vars)[PayloadOf(token)];
      if (v == kNoVar) {
        // The argument cell, still unbound, is the fresh variable.
        v = RefCell(slot.dest);
        continue;
      }
      value = v;
    }
    store->At(slot.dest) = value;
  }
  return result;
}

bool UnifyTokens(TermStore* store, const InternTable* interns,
                 const Word* tokens, size_t* pos, Word t,
                 std::vector<Word>* vars) {
  // Heap terms awaiting the next term of the stream, first argument on top.
  std::vector<Word>& work = Stacks().unify;
  size_t base = work.size();
  work.push_back(t);
  bool ok = true;
  while (ok && work.size() > base) {
    Word x = work.back();
    work.pop_back();
    Word token = tokens[*pos];
    switch (TagOf(token)) {
      case Tag::kLocal: {
        ++*pos;
        Word& v = (*vars)[PayloadOf(token)];
        if (v == kNoVar) {
          v = x;
        } else {
          ok = store->Unify(v, x);
        }
        break;
      }
      case Tag::kFunctor: {
        Word d = store->Deref(x);
        if (IsRef(d)) {
          store->Bind(d, BuildTokens(store, interns, tokens, pos, vars));
          break;
        }
        FunctorId f = FunctorOf(token);
        if (!IsStruct(d) || store->StructFunctor(d) != f) {
          ok = false;
          break;
        }
        ++*pos;
        for (int i = store->symbols()->FunctorArity(f) - 1; i >= 0; --i) {
          work.push_back(store->Arg(d, i));
        }
        break;
      }
      case Tag::kInterned:
        ++*pos;
        ok = UnifyGroundToken(store, interns, token, x);
        break;
      default: {  // atom or int
        ++*pos;
        Word d = store->Deref(x);
        if (IsRef(d)) {
          store->Bind(d, token);
        } else {
          ok = d == token;
        }
        break;
      }
    }
  }
  work.resize(base);
  return ok;
}

Word Unflatten(TermStore* store, const FlatTerm& flat,
               std::vector<Word>* vars) {
  if (vars == nullptr) {
    return UnflattenAt(store, flat.cells.data(), 0, flat.num_vars);
  }
  if (vars->size() < flat.num_vars) {
    vars->resize(flat.num_vars, kNoVar);
  }
  size_t pos = 0;
  return BuildTokens(store, nullptr, flat.cells.data(), &pos, vars);
}

Word UnflattenAt(TermStore* store, const Word* tokens, size_t pos,
                 uint32_t num_vars) {
  std::vector<Word>& vars = Stacks().unflatten_vars;
  vars.assign(num_vars, kNoVar);
  return BuildTokens(store, nullptr, tokens, &pos, &vars);
}

bool FlatTopFunctor(const FlatTerm& flat, FunctorId* functor) {
  if (flat.cells.empty() || !IsFunctor(flat.cells[0])) return false;
  *functor = FunctorOf(flat.cells[0]);
  return true;
}

}  // namespace xsb

#include "db/objfile.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <unordered_map>

namespace xsb {
namespace {

constexpr uint32_t kMagic = 0x584F424Au;  // "XOBJ"-ish tag
constexpr uint32_t kVersion = 1;

void PutU32(std::ostream& out, uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::ostream& out, uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
// In-memory cursor over a loaded object file.
struct MemReader {
  explicit MemReader(const std::string& bytes)
      : data(bytes.data()), size(bytes.size()) {}
  const char* data;
  size_t size;
  size_t pos = 0;

  bool Read(void* out, size_t n) {
    if (pos + n > size) return false;
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
};

bool GetU32(MemReader& in, uint32_t* v) { return in.Read(v, sizeof(*v)); }
bool GetU64(MemReader& in, uint64_t* v) { return in.Read(v, sizeof(*v)); }

// Local symbol tables built while writing: global ids -> dense local ids.
struct LocalSymbols {
  std::unordered_map<AtomId, uint32_t> atom_ids;
  std::vector<AtomId> atoms;
  std::unordered_map<FunctorId, uint32_t> functor_ids;
  std::vector<FunctorId> functors;

  uint32_t Atom(AtomId a) {
    auto [it, inserted] = atom_ids.try_emplace(a, atoms.size());
    if (inserted) atoms.push_back(a);
    return it->second;
  }
  uint32_t Functor(FunctorId f) {
    auto [it, inserted] = functor_ids.try_emplace(f, functors.size());
    if (inserted) functors.push_back(f);
    return it->second;
  }
};

Word RemapCellOut(Word cell, LocalSymbols* local) {
  switch (TagOf(cell)) {
    case Tag::kAtom:
      return MakeCell(Tag::kAtom, local->Atom(AtomOf(cell)));
    case Tag::kFunctor:
      return MakeCell(Tag::kFunctor, local->Functor(FunctorOf(cell)));
    default:
      return cell;  // ints and locals are position independent
  }
}

}  // namespace

Status SaveObjectFile(const Program& program,
                      const std::vector<FunctorId>& predicates,
                      const std::string& path) {
  std::vector<const Predicate*> preds;
  if (predicates.empty()) {
    for (const auto& pred : program.predicates()) {
      if (pred != nullptr && pred->num_live_clauses() > 0) {
        preds.push_back(pred.get());
      }
    }
  } else {
    for (FunctorId f : predicates) {
      const Predicate* pred = program.Lookup(f);
      if (pred == nullptr) {
        return InvalidError("object save: unknown predicate");
      }
      preds.push_back(pred);
    }
  }

  // First pass: remap all clause cells and collect the local symbol tables.
  LocalSymbols local;
  struct OutClause {
    uint8_t is_rule;
    uint32_t head_pos;
    uint32_t num_vars;
    std::vector<Word> cells;
  };
  struct OutPred {
    uint32_t functor;
    uint8_t tabled;
    std::vector<OutClause> clauses;
  };
  std::vector<OutPred> out_preds;
  for (const Predicate* pred : preds) {
    OutPred op;
    op.functor = local.Functor(pred->functor());
    op.tabled = pred->tabled() ? 1 : 0;
    for (ClauseId id : pred->AllClauses()) {
      const Clause& clause = pred->clause(id);
      if (clause.erased) continue;
      OutClause oc;
      oc.is_rule = clause.is_rule ? 1 : 0;
      oc.head_pos = static_cast<uint32_t>(clause.head_pos);
      oc.num_vars = clause.term.num_vars;
      oc.cells.reserve(clause.term.cells.size());
      for (Word cell : clause.term.cells) {
        oc.cells.push_back(RemapCellOut(cell, &local));
      }
      op.clauses.push_back(std::move(oc));
    }
    out_preds.push_back(std::move(op));
  }

  const SymbolTable& symbols = *program.symbols();
  // Functor names must be in the local atom table before it is emitted.
  for (size_t i = 0; i < local.functors.size(); ++i) {
    local.Atom(symbols.FunctorAtom(local.functors[i]));
  }

  std::ofstream out(path, std::ios::binary);
  if (!out) return IoError("cannot write " + path);
  PutU32(out, kMagic);
  PutU32(out, kVersion);
  PutU32(out, static_cast<uint32_t>(local.atoms.size()));
  for (AtomId a : local.atoms) {
    const std::string& name = symbols.AtomName(a);
    PutU32(out, static_cast<uint32_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
  }
  PutU32(out, static_cast<uint32_t>(local.functors.size()));
  for (FunctorId f : local.functors) {
    PutU32(out, local.Atom(symbols.FunctorAtom(f)));
    PutU32(out, static_cast<uint32_t>(symbols.FunctorArity(f)));
  }
  PutU32(out, static_cast<uint32_t>(out_preds.size()));
  for (const OutPred& op : out_preds) {
    PutU32(out, op.functor);
    PutU32(out, op.tabled);
    PutU32(out, static_cast<uint32_t>(op.clauses.size()));
    for (const OutClause& oc : op.clauses) {
      PutU32(out, oc.is_rule);
      PutU32(out, oc.head_pos);
      PutU32(out, oc.num_vars);
      PutU32(out, static_cast<uint32_t>(oc.cells.size()));
      for (Word cell : oc.cells) PutU64(out, cell);
    }
  }
  if (!out) return IoError("write failure on " + path);
  return Status::Ok();
}

Result<size_t> LoadObjectFile(Program* program, const std::string& path) {
  // Slurp the whole file: object loading is meant to be bulk-speed
  // (section 4.6), so avoid per-word stream reads.
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return IoError("cannot open " + path);
  std::string bytes(static_cast<size_t>(file.tellg()), '\0');
  file.seekg(0);
  file.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!file) return IoError("read failure on " + path);
  MemReader in(bytes);
  uint32_t magic = 0, version = 0;
  if (!GetU32(in, &magic) || magic != kMagic) {
    return IoError("bad object file magic: " + path);
  }
  if (!GetU32(in, &version) || version != kVersion) {
    return IoError("unsupported object file version");
  }

  SymbolTable* symbols = program->symbols();
  uint32_t natoms = 0;
  if (!GetU32(in, &natoms)) return IoError("truncated object file");
  std::vector<AtomId> atoms(natoms);
  std::string buffer;
  for (uint32_t i = 0; i < natoms; ++i) {
    uint32_t len = 0;
    if (!GetU32(in, &len)) return IoError("truncated object file");
    buffer.resize(len);
    if (!in.Read(buffer.data(), len)) return IoError("truncated object file");
    atoms[i] = symbols->InternAtom(buffer);
  }
  uint32_t nfunctors = 0;
  if (!GetU32(in, &nfunctors)) return IoError("truncated object file");
  std::vector<FunctorId> functors(nfunctors);
  for (uint32_t i = 0; i < nfunctors; ++i) {
    uint32_t atom = 0, arity = 0;
    if (!GetU32(in, &atom) || !GetU32(in, &arity) || atom >= natoms) {
      return IoError("corrupt functor table");
    }
    functors[i] = symbols->InternFunctor(atoms[atom],
                                         static_cast<int>(arity));
  }

  uint32_t npreds = 0;
  if (!GetU32(in, &npreds)) return IoError("truncated object file");
  size_t total_clauses = 0;
  for (uint32_t p = 0; p < npreds; ++p) {
    uint32_t functor_local = 0, tabled = 0, nclauses = 0;
    if (!GetU32(in, &functor_local) || !GetU32(in, &tabled) ||
        !GetU32(in, &nclauses) || functor_local >= nfunctors) {
      return IoError("corrupt predicate header");
    }
    Predicate* pred = program->LookupOrCreate(functors[functor_local]);
    if (tabled != 0) pred->set_tabled(true);
    for (uint32_t c = 0; c < nclauses; ++c) {
      uint32_t is_rule = 0, head_pos = 0, num_vars = 0, ncells = 0;
      if (!GetU32(in, &is_rule) || !GetU32(in, &head_pos) ||
          !GetU32(in, &num_vars) || !GetU32(in, &ncells)) {
        return IoError("corrupt clause header");
      }
      Clause clause;
      clause.is_rule = is_rule != 0;
      clause.head_pos = head_pos;
      clause.term.num_vars = num_vars;
      clause.term.cells.resize(ncells);
      for (uint32_t i = 0; i < ncells; ++i) {
        uint64_t cell = 0;
        if (!GetU64(in, &cell)) return IoError("truncated clause cells");
        switch (TagOf(cell)) {
          case Tag::kAtom: {
            uint64_t local = PayloadOf(cell);
            if (local >= natoms) return IoError("corrupt atom reference");
            cell = AtomCell(atoms[local]);
            break;
          }
          case Tag::kFunctor: {
            uint64_t local = PayloadOf(cell);
            if (local >= nfunctors) {
              return IoError("corrupt functor reference");
            }
            cell = FunctorCell(functors[local]);
            break;
          }
          default:
            break;
        }
        clause.term.cells[i] = cell;
      }
      pred->AddClause(*symbols, std::move(clause), /*front=*/false);
      ++total_clauses;
    }
  }
  return total_clauses;
}

}  // namespace xsb

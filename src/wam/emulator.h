#ifndef XSB_WAM_EMULATOR_H_
#define XSB_WAM_EMULATOR_H_

#include <algorithm>
#include <functional>
#include <vector>

#include "base/status.h"
#include "term/store.h"
#include "wam/instr.h"

namespace xsb::wam {

// Decision returned by the per-solution callback.
enum class WamAction { kContinue, kStop };
using WamSolutionFn = std::function<WamAction()>;

struct WamStats {
  uint64_t instructions = 0;
  uint64_t choice_points = 0;
  // Mode-specialized entries taken / kCheckMode guards that failed and fell
  // back to the generic copy (a call violating its inferred mode pattern).
  uint64_t mode_checks = 0;
  uint64_t mode_fallbacks = 0;
  // First-argument indexing: structure-key dispatches that hit (functor
  // table or './2' fast path), and calls that fell through to a linear
  // clause chain — a switch_on_term taking its var arm, or an unindexed
  // try_me_else chain entry.
  uint64_t switch_structure_hits = 0;
  uint64_t switch_miss_linear = 0;
};

// The WAM bytecode emulator: registers, environment stack and choice-point
// stack over the shared TermStore heap/trail. This is the "compiled"
// execution tier of the reproduction (Table 3's fastest rows are the
// WAM-based systems) and the only way WAM code runs.
class Emulator {
 public:
  Emulator(TermStore* store, const CompiledModule* module)
      : store_(store), module_(module) {}

  // Proves `goal` (a heap term whose predicate is compiled in the module),
  // invoking the callback per solution with bindings live.
  Status Solve(Word goal, const WamSolutionFn& on_solution);

  // This emulator's counters, accumulated over every Solve; the compiled
  // wam_stats/2 builtin reports them.
  WamStats& stats() { return stats_; }

 private:
  struct Frame {
    size_t cont_pc;
    size_t prev_frame;  // index+1; 0 = none
    std::vector<Word> y;
  };
  struct Choice {
    size_t alt_pc;
    size_t cont_pc;
    size_t frame;        // cur_frame_ at creation
    size_t frames_size;  // frames_.size() at creation
    size_t trail_mark;
    size_t heap_mark;
    std::vector<Word> args;  // A1..An snapshot
  };

  // Choice points and environment frames live in high-water-mark stacks:
  // popping only moves the logical size (cps_size_/frames_size_), so the
  // per-entry vectors (saved A registers, Y slots) keep their capacity and
  // a push after warmup allocates nothing. A malloc+free per choice point
  // would otherwise dominate backtracking-heavy programs (every two-clause
  // call pushes one).
  void PushChoice(size_t alt_pc, uint32_t arity, size_t cont) {
    if (cps_.size() == cps_size_) cps_.emplace_back();
    Choice& cp = cps_[cps_size_++];
    cp.alt_pc = alt_pc;
    cp.cont_pc = cont;
    cp.frame = cur_frame_;
    cp.frames_size = frames_size_;
    cp.trail_mark = store_->TrailMark();
    cp.heap_mark = store_->HeapMark();
    cp.args.assign(x_.begin(),
                   x_.begin() + std::min<size_t>(x_.size(), arity + 1));
    ++stats_.choice_points;
  }

  // retry/trust: restore the saved continuation; update or pop the choice.
  size_t RetryTop(size_t new_alt) {
    cps_[cps_size_ - 1].alt_pc = new_alt;
    return cps_[cps_size_ - 1].cont_pc;
  }
  size_t TrustTop() {
    return cps_[--cps_size_].cont_pc;
  }

  void AllocateFrame(uint32_t n, size_t cont) {
    if (frames_.size() == frames_size_) frames_.emplace_back();
    Frame& frame = frames_[frames_size_++];
    frame.cont_pc = cont;
    frame.prev_frame = cur_frame_;
    frame.y.assign(n, 0);
    cur_frame_ = frames_size_;
  }
  // The frame's storage survives (a choice point below may still need it);
  // only the E register moves, as in the real WAM. Returns the saved cont.
  size_t DeallocateFrame() {
    Frame& frame = frames_[cur_frame_ - 1];
    cur_frame_ = frame.prev_frame;
    return frame.cont_pc;
  }

  bool Backtrack(size_t* pc);
  // The kCheckMode groundness walk (iterative, reused scratch).
  bool GroundForMode(Word w);

  Word& Reg(uint32_t reg) {
    if (IsYReg(reg)) return frames_[cur_frame_ - 1].y[RegIndex(reg)];
    uint32_t ix = RegIndex(reg);
    if (x_.size() <= ix) x_.resize(ix + 1, 0);
    return x_[ix];
  }

  Result<int64_t> Eval(Word expression);
  bool BuiltinWamStats();

  TermStore* store_;
  const CompiledModule* module_;
  std::vector<Word> x_;
  std::vector<Frame> frames_;   // storage high-water mark; logical top below
  size_t frames_size_ = 0;
  size_t cur_frame_ = 0;  // index+1; 0 = none
  std::vector<Choice> cps_;     // storage high-water mark; logical top below
  size_t cps_size_ = 0;
  std::vector<Word> ground_work_;  // kCheckMode ground-walk scratch
  WamStats stats_;
};

}  // namespace xsb::wam

#endif  // XSB_WAM_EMULATOR_H_

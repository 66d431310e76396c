#include "re/engine.hpp"

#include <algorithm>
#include <chrono>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>

#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "re/memo.hpp"
#include "re/zero_round.hpp"

namespace relb::re {

namespace {

std::uint64_t mixKey(std::uint64_t h, std::uint64_t v) {
  v += 0x9e3779b97f4a7c15ULL;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (v ^ (v >> 31));
}

}  // namespace

std::string CacheStats::describe() const {
  const auto line = [](const char* name, std::size_t hits,
                       std::size_t misses) {
    return std::string(name) + ": " + std::to_string(hits) + " hits / " +
           std::to_string(misses) + " misses\n";
  };
  std::string out;
  out += line("speedup steps", stepHits, stepMisses);
  out += line("edge compatibility", edgeCompatHits, edgeCompatMisses);
  out += line("strength diagrams", strengthHits, strengthMisses);
  out += line("right-closed families", rightClosedHits, rightClosedMisses);
  out += line("zero-round analyses", zeroRoundHits, zeroRoundMisses);
  out += line("canonical forms", canonicalHits, canonicalMisses);
  out += "interned problems: " + std::to_string(internedProblems) + "\n";
  out += "step store: " + std::to_string(storeHits) + " hits / " +
         std::to_string(storeMisses) + " misses / " +
         std::to_string(storeWrites) + " writes\n";
  return out;
}

// ---------------------------------------------------------------------------
// EngineCore
// ---------------------------------------------------------------------------

struct EngineCore::Impl {
  // Every cache is one Memo: buckets keyed by a 64-bit slot hash, entries
  // carrying their full key.  Keys are tuples ordered cheapest field first,
  // since a lookup compares them left to right.
  mutable std::mutex mutex;
  /// (kind 0 = R / 1 = Rbar, maxRbarDelta, enumerationLimit, input).
  detail::Memo<std::tuple<int, Count, std::size_t, Problem>, StepResult> steps;
  /// (alphabetSize, edge).
  detail::Memo<std::tuple<int, Constraint>, std::vector<LabelSet>> edgeCompat;
  /// (alphabetSize, enumerationLimit, constraint).
  detail::Memo<std::tuple<int, std::size_t, Constraint>, StrengthRelation>
      strengths;
  /// (alphabetSize, universe, enumerationLimit, constraint).
  detail::Memo<std::tuple<int, LabelSet, std::size_t, Constraint>,
               std::vector<LabelSet>>
      rightClosed;
  detail::Memo<std::tuple<ZeroRoundMode, Problem>, bool> zeroRound;
  detail::Memo<Problem, CanonicalForm> canonicals;
  /// The intern set: canonical problems keyed by their canonical hash.
  detail::Memo<Problem, std::monostate> interned;
  /// Aggregate across every session over this core.
  CacheStats stats;
  /// Durable write-through backing; consulted on memo misses.  Load/store
  /// calls run OUTSIDE the mutex (the storage is thread-safe by contract).
  std::shared_ptr<StepStorage> storage;
};

EngineCore::EngineCore() : impl_(std::make_unique<Impl>()) {}

EngineCore::~EngineCore() = default;

void EngineCore::attachStore(std::shared_ptr<StepStorage> store) {
  std::lock_guard lock(impl_->mutex);
  impl_->storage = std::move(store);
}

std::shared_ptr<StepStorage> EngineCore::store() const {
  std::lock_guard lock(impl_->mutex);
  return impl_->storage;
}

CacheStats EngineCore::stats() const {
  std::lock_guard lock(impl_->mutex);
  return impl_->stats;
}

void EngineCore::resetStats() {
  std::lock_guard lock(impl_->mutex);
  impl_->stats = CacheStats{};
}

// ---------------------------------------------------------------------------
// EngineSession
// ---------------------------------------------------------------------------

/// One cache kind's accounting: the CacheStats fields a lookup counts, and
/// the registry counters they are mirrored into (null: not mirrored).
struct EngineSession::MemoCounters {
  std::size_t CacheStats::*hits;
  std::size_t CacheStats::*misses;
  obs::Counter* hit = nullptr;
  obs::Counter* miss = nullptr;
};

/// Every kind's counters, with the registry mirrors interned once per
/// session (the per-session CacheStats stay the source of truth for
/// `--stats`; the registry is what run reports and counter-based tests
/// read).  For scope-less sessions the registry is the global one, so names
/// collide deliberately: globals aggregate.
struct EngineSession::ObsHooks {
  MemoCounters step, edgeCompat, strength, rightClosed, zeroRound, canonical;
  /// Durable-store traffic: hits/misses of loads, plus writes.
  MemoCounters store;
  obs::Counter& storeWrite;

  explicit ObsHooks(obs::Registry& r)
      : step{&CacheStats::stepHits, &CacheStats::stepMisses,
             &r.counter("engine.memo.hit"), &r.counter("engine.memo.miss")},
        edgeCompat{&CacheStats::edgeCompatHits, &CacheStats::edgeCompatMisses},
        strength{&CacheStats::strengthHits, &CacheStats::strengthMisses},
        rightClosed{&CacheStats::rightClosedHits,
                    &CacheStats::rightClosedMisses},
        zeroRound{&CacheStats::zeroRoundHits, &CacheStats::zeroRoundMisses,
                  &r.counter("engine.zero_round.hit"),
                  &r.counter("engine.zero_round.miss")},
        canonical{&CacheStats::canonicalHits, &CacheStats::canonicalMisses,
                  &r.counter("engine.canonical.hit"),
                  &r.counter("engine.canonical.miss")},
        store{&CacheStats::storeHits, &CacheStats::storeMisses,
              &r.counter("store.hit"), &r.counter("store.miss")},
        storeWrite(r.counter("store.write")) {}
};

EngineSession::EngineSession(std::shared_ptr<EngineCore> core,
                             PassOptions options, obs::SessionScope* scope)
    : core_(core != nullptr ? std::move(core)
                            : std::make_shared<EngineCore>()),
      options_(options),
      registry_(scope != nullptr ? &scope->registry()
                                 : &obs::Registry::global()),
      tracer_(scope != nullptr ? &scope->tracer() : &obs::Tracer::global()),
      obs_(std::make_unique<ObsHooks>(*registry_)) {}

EngineSession::~EngineSession() = default;

void EngineSession::attachStore(std::shared_ptr<StepStorage> store) {
  core_->attachStore(std::move(store));
}

void EngineSession::tally(std::size_t CacheStats::*field,
                          obs::Counter* mirror) {
  ++(core_->impl_->stats.*field);
  ++(stats_.*field);
  if (mirror != nullptr) mirror->add();
}

template <typename Table, typename Probe, typename Compute, typename Load,
          typename Save>
typename Table::Value EngineSession::memoized(Table& table,
                                              const MemoCounters& counters,
                                              std::uint64_t slot,
                                              const Probe& probe,
                                              Compute&& compute, Load&& load,
                                              Save&& save) {
  constexpr bool kDurable = !std::is_null_pointer_v<std::decay_t<Load>>;
  using Key = typename Table::Key;
  using Value = typename Table::Value;
  EngineCore::Impl& impl = *core_->impl_;
  std::shared_ptr<StepStorage> storage;
  {
    std::lock_guard lock(impl.mutex);
    if (const Value* hit = table.find(slot, probe)) {
      tally(counters.hits, counters.hit);
      return *hit;
    }
    if constexpr (kDurable) storage = impl.storage;
  }
  if constexpr (kDurable) {
    if (storage != nullptr) {
      if (std::optional<Value> loaded = load(*storage)) {
        // A store hit fills the memo without counting a miss.
        std::lock_guard lock(impl.mutex);
        tally(obs_->store.hits, obs_->store.hit);
        table.insert(slot, Key(probe), *loaded);
        return *std::move(loaded);
      }
      std::lock_guard lock(impl.mutex);
      tally(obs_->store.misses, obs_->store.miss);
    }
  }
  Value value = compute();
  {
    std::lock_guard lock(impl.mutex);
    tally(counters.misses, counters.miss);
    table.insert(slot, Key(probe), value);
  }
  if constexpr (kDurable) {
    if (storage != nullptr) {
      save(*storage, value);
      std::lock_guard lock(impl.mutex);
      tally(&CacheStats::storeWrites, &obs_->storeWrite);
    }
  }
  return value;
}

StepResult EngineSession::step(int kind, const Problem& p) {
  const std::uint64_t hash = structuralHash(p);
  // R reads no Rbar guard: its entries store both as 0, so an R hit matches
  // whatever guards the asking session carries.
  const Count maxRbarDelta = kind == 1 ? options_.maxRbarDelta : 0;
  const std::size_t limit = kind == 1 ? options_.enumerationLimit : 0;
  return memoized(
      core_->impl_->steps, obs_->step, mixKey(kind, hash),
      std::tie(kind, maxRbarDelta, limit, p),
      [&] {
        return kind == 0 ? detail::applyRImpl(p, options_, this)
                         : detail::applyRbarImpl(p, options_, this);
      },
      [&](StepStorage& s) { return s.loadStep(kind, p, hash, options_); },
      [&](StepStorage& s, const StepResult& r) {
        s.storeStep(kind, p, hash, options_, r);
      });
}

StepResult EngineSession::applyR(const Problem& p) {
  const obs::ScopedSpan span("engine.applyR", *tracer_);
  return step(0, p);
}

StepResult EngineSession::applyRbar(const Problem& p) {
  const obs::ScopedSpan span("engine.applyRbar", *tracer_);
  return step(1, p);
}

Problem EngineSession::speedupStep(const Problem& p) {
  return applyRbar(applyR(p).problem).problem;
}

std::vector<LabelSet> EngineSession::edgeCompatibility(const Constraint& edge,
                                                       int alphabetSize) {
  return memoized(
      core_->impl_->edgeCompat, obs_->edgeCompat,
      mixKey(structuralHash(edge), static_cast<std::uint64_t>(alphabetSize)),
      std::tie(alphabetSize, edge),
      [&] { return re::edgeCompatibility(edge, alphabetSize); });
}

StrengthRelation EngineSession::strength(const Constraint& constraint,
                                         int alphabetSize,
                                         std::size_t enumerationLimit) {
  return memoized(
      core_->impl_->strengths, obs_->strength,
      mixKey(mixKey(structuralHash(constraint),
                    static_cast<std::uint64_t>(alphabetSize)),
             enumerationLimit),
      std::tie(alphabetSize, enumerationLimit, constraint), [&] {
        return computeStrength(constraint, alphabetSize, enumerationLimit);
      });
}

std::vector<LabelSet> EngineSession::rightClosedSets(
    const Constraint& constraint, int alphabetSize, LabelSet universe,
    std::size_t enumerationLimit) {
  return memoized(
      core_->impl_->rightClosed, obs_->rightClosed,
      mixKey(mixKey(mixKey(structuralHash(constraint),
                           static_cast<std::uint64_t>(alphabetSize)),
                    universe.bits()),
             enumerationLimit),
      std::tie(alphabetSize, universe, enumerationLimit, constraint), [&] {
        return strength(constraint, alphabetSize, enumerationLimit)
            .allRightClosedSets(universe);
      });
}

bool EngineSession::zeroRoundSolvable(const Problem& p, ZeroRoundMode mode) {
  const obs::ScopedSpan span("engine.zeroRound", *tracer_);
  const std::uint64_t hash = structuralHash(p);
  return memoized(
      core_->impl_->zeroRound, obs_->zeroRound,
      mixKey(static_cast<std::uint64_t>(mode) + 7, hash), std::tie(mode, p),
      [&] {
        switch (mode) {
          case ZeroRoundMode::kSymmetricPorts:
            return zeroRoundSolvableSymmetricPorts(p);
          case ZeroRoundMode::kAdversarialPorts:
            return zeroRoundSolvableAdversarialPorts(p);
          case ZeroRoundMode::kWithEdgeInputs:
            return zeroRoundSolvableWithEdgeInputs(p);
        }
        return false;
      },
      [&](StepStorage& s) { return s.loadZeroRound(mode, p, hash); },
      [&](StepStorage& s, bool solvable) {
        s.storeZeroRound(mode, p, hash, solvable);
      });
}

EngineSession::InternResult EngineSession::intern(const Problem& p) {
  const obs::ScopedSpan span("engine.intern", *tracer_);
  EngineCore::Impl& impl = *core_->impl_;
  InternResult result;
  result.canonical = memoized(impl.canonicals, obs_->canonical,
                              structuralHash(p), p,
                              [&] { return canonicalize(p); });
  result.hash = result.canonical.hash;
  std::lock_guard lock(impl.mutex);
  result.alreadyInterned =
      impl.interned.find(result.hash, result.canonical.problem) != nullptr;
  if (!result.alreadyInterned) {
    impl.interned.insert(result.hash, result.canonical.problem, {});
    tally(&CacheStats::internedProblems, nullptr);
  }
  return result;
}

CacheStats EngineSession::stats() const {
  std::lock_guard lock(core_->impl_->mutex);
  return stats_;
}

void EngineSession::resetStats() {
  std::lock_guard lock(core_->impl_->mutex);
  stats_ = CacheStats{};
}

PipelineResult EngineSession::speedupStepWithStats(const Problem& p) {
  PipelineResult out;
  out.problem = p;
  for (const bool rbar : {false, true}) {
    PassStats st;
    st.name = rbar ? "ApplyRbar" : "ApplyR";
    st.labelsIn = out.problem.alphabet.size();
    st.nodeConfigsIn = out.problem.node.size();
    st.edgeConfigsIn = out.problem.edge.size();
    const CacheStats before = stats();
    const auto t0 = std::chrono::steady_clock::now();
    StepResult r;
    {
      const obs::ScopedSpan span(rbar ? "pass.ApplyRbar" : "pass.ApplyR",
                                 *tracer_);
      r = rbar ? applyRbar(out.problem) : applyR(out.problem);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const CacheStats after = stats();
    st.wallMicros =
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count();
    st.fromCache = after.stepHits > before.stepHits &&
                   after.stepMisses == before.stepMisses;
    out.problem = std::move(r.problem);
    const auto labels = static_cast<std::int64_t>(out.problem.alphabet.size());
    registry_->gauge("re.labels.last").set(labels);
    if (tracer_->enabled()) tracer_->counter("re.labels.last", labels);
    st.labelsOut = out.problem.alphabet.size();
    st.nodeConfigsOut = out.problem.node.size();
    st.edgeConfigsOut = out.problem.edge.size();
    out.passes.push_back(std::move(st));
  }
  return out;
}

std::string PipelineResult::renderStatsTable() const {
  // Column layout:  pass | wall us | labels in->out | node cfgs | edge cfgs
  //                 | cache | note
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"pass", "wall(us)", "labels", "node cfgs", "edge cfgs",
                  "cache", "note"});
  for (const PassStats& s : passes) {
    rows.push_back({s.name, std::to_string(s.wallMicros),
                    std::to_string(s.labelsIn) + "->" +
                        std::to_string(s.labelsOut),
                    std::to_string(s.nodeConfigsIn) + "->" +
                        std::to_string(s.nodeConfigsOut),
                    std::to_string(s.edgeConfigsIn) + "->" +
                        std::to_string(s.edgeConfigsOut),
                    s.fromCache ? "hit" : "miss", s.note});
  }
  std::vector<std::size_t> width(rows.front().size(), 0);
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::string out;
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      if (c + 1 < row.size()) {
        out.append(width[c] - row[c].size() + 2, ' ');
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace relb::re

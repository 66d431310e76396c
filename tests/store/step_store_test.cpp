// DiskStepStore: persistence across contexts, crash safety (truncated and
// corrupted entries are quarantined and recomputed, never trusted), and the
// zero-recomputation guarantee for warm-store runs.
#include "store/step_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/sequence.hpp"
#include "io/certificate.hpp"
#include "obs/metrics.hpp"
#include "re/canonical.hpp"
#include "re/problem.hpp"
#include "re/re_step.hpp"

namespace relb::store {
namespace {

namespace fs = std::filesystem;

fs::path freshDir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

std::vector<fs::path> objectFiles(const fs::path& root) {
  std::vector<fs::path> out;
  for (const auto& entry :
       fs::recursive_directory_iterator(root / "objects")) {
    if (entry.is_regular_file()) out.push_back(entry.path());
  }
  return out;
}

TEST(DiskStepStore, InitializesLayoutAndRejectsForeignFormat) {
  const fs::path dir = freshDir("store-layout");
  {
    DiskStepStore store(dir);
    EXPECT_TRUE(fs::exists(dir / "FORMAT"));
    EXPECT_TRUE(fs::exists(dir / "objects"));
    EXPECT_TRUE(fs::exists(dir / "quarantine"));
    EXPECT_EQ(store.objectCount(), 0u);
  }
  // Reopening an existing store is fine.
  DiskStepStore reopened(dir);
  // A root stamped by some other (future) version is refused.
  {
    std::ofstream out(dir / "FORMAT", std::ios::trunc);
    out << "relb-store 999\n";
  }
  EXPECT_THROW(DiskStepStore bad(dir), re::Error);
}

TEST(DiskStepStore, StepResultsPersistAcrossContexts) {
  const fs::path dir = freshDir("store-persist");
  const re::Problem p = re::misProblem(3);

  re::StepResult coldR, coldRbar;
  {
    re::EngineSession ctx;
    ctx.attachStore(std::make_shared<DiskStepStore>(dir));
    coldR = ctx.applyR(p);
    coldRbar = ctx.applyRbar(coldR.problem);
    const auto stats = ctx.stats();
    EXPECT_EQ(stats.stepMisses, 2u);
    EXPECT_EQ(stats.storeHits, 0u);
    EXPECT_EQ(stats.storeWrites, 2u);
  }

  // A brand-new context with the same store recomputes nothing.
  re::EngineSession warm;
  auto store = std::make_shared<DiskStepStore>(dir);
  warm.attachStore(store);
  const re::StepResult warmR = warm.applyR(p);
  const re::StepResult warmRbar = warm.applyRbar(warmR.problem);
  EXPECT_EQ(warmR.problem, coldR.problem);
  EXPECT_EQ(warmR.meaning, coldR.meaning);
  EXPECT_EQ(warmRbar.problem, coldRbar.problem);
  EXPECT_EQ(warmRbar.meaning, coldRbar.meaning);
  const auto stats = warm.stats();
  EXPECT_EQ(stats.stepMisses, 0u) << "warm store must recompute nothing";
  EXPECT_EQ(stats.storeHits, 2u);
  EXPECT_EQ(store->stats().hits, 2u);

  // Second lookup in the same context is served by the in-memory memo, not
  // the disk.
  (void)warm.applyR(p);
  EXPECT_EQ(warm.stats().storeHits, 2u);
  EXPECT_EQ(warm.stats().stepHits, 1u);
}

TEST(DiskStepStore, WarmChainCertificationRecomputesNothing) {
  const fs::path dir = freshDir("store-chain");
  const core::Chain chain = core::exactChain(32, 1);
  std::string coldBytes, warmBytes;
  {
    re::EngineSession ctx;
    ctx.attachStore(std::make_shared<DiskStepStore>(dir));
    const auto cert = core::buildChainCertificate(chain, &ctx);
    coldBytes = io::certificateToJson(cert).dumpPretty();
    EXPECT_GT(ctx.stats().zeroRoundMisses, 0u);
  }
  {
    // The warm run is also observable through the global counter registry:
    // every step is served by the store (store.hit ticks once per step,
    // store.miss not at all).  Asserted on snapshot deltas, not stdout.
    const auto before = obs::Registry::global().snapshot();
    re::EngineSession ctx;
    ctx.attachStore(std::make_shared<DiskStepStore>(dir));
    const auto cert = core::buildChainCertificate(chain, &ctx);
    warmBytes = io::certificateToJson(cert).dumpPretty();
    EXPECT_EQ(ctx.stats().zeroRoundMisses, 0u);
    EXPECT_EQ(ctx.stats().stepMisses, 0u);
    EXPECT_EQ(ctx.stats().storeHits, chain.steps.size());
    const auto after = obs::Registry::global().snapshot();
    EXPECT_EQ(after.counterValue("store.hit") -
                  before.counterValue("store.hit"),
              chain.steps.size());
    EXPECT_EQ(after.counterValue("store.miss"),
              before.counterValue("store.miss"));
    EXPECT_EQ(after.counterValue("store.write"),
              before.counterValue("store.write"));
  }
  EXPECT_EQ(coldBytes, warmBytes) << "certificates must be bit-identical "
                                     "between cold- and warm-store runs";
}

TEST(DiskStepStore, TruncatedEntryIsQuarantinedAndRecomputed) {
  const fs::path dir = freshDir("store-truncate");
  const re::Problem p = re::misProblem(3);
  re::StepResult expected;
  {
    re::EngineSession ctx;
    ctx.attachStore(std::make_shared<DiskStepStore>(dir));
    expected = ctx.applyR(p);
  }
  // Simulate a crash that left a half-written entry (bypassing the atomic
  // writer on purpose).
  const auto files = objectFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string original = [&] {
    std::ifstream in(files[0], std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  {
    std::ofstream out(files[0], std::ios::binary | std::ios::trunc);
    out << original.substr(0, original.size() / 2);
  }

  auto store = std::make_shared<DiskStepStore>(dir);
  re::EngineSession ctx;
  ctx.attachStore(store);
  const re::StepResult recomputed = ctx.applyR(p);
  EXPECT_EQ(recomputed.problem, expected.problem);
  EXPECT_EQ(recomputed.meaning, expected.meaning);
  EXPECT_EQ(store->stats().quarantined, 1u);
  EXPECT_EQ(ctx.stats().stepMisses, 1u);  // recomputed, not trusted
  EXPECT_FALSE(fs::is_empty(dir / "quarantine"));
  // The recomputation was written back: a third context gets a clean hit.
  re::EngineSession again;
  again.attachStore(std::make_shared<DiskStepStore>(dir));
  (void)again.applyR(p);
  EXPECT_EQ(again.stats().storeHits, 1u);
  EXPECT_EQ(again.stats().stepMisses, 0u);
}

TEST(DiskStepStore, ChecksumMismatchIsQuarantined) {
  const fs::path dir = freshDir("store-corrupt");
  const re::Problem p = re::sinklessOrientationProblem(3);
  {
    re::EngineSession ctx;
    ctx.attachStore(std::make_shared<DiskStepStore>(dir));
    (void)ctx.zeroRoundSolvable(p, re::ZeroRoundMode::kSymmetricPorts);
  }
  const auto files = objectFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  // Flip the verdict inside the payload; the checksum no longer matches.
  std::string text = [&] {
    std::ifstream in(files[0], std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  const auto pos = text.find("\"solvable\":false");
  ASSERT_NE(pos, std::string::npos) << text;
  text.replace(pos, 16, "\"solvable\":true ");
  {
    std::ofstream out(files[0], std::ios::binary | std::ios::trunc);
    out << text;
  }

  auto store = std::make_shared<DiskStepStore>(dir);
  re::EngineSession ctx;
  ctx.attachStore(store);
  EXPECT_FALSE(ctx.zeroRoundSolvable(p, re::ZeroRoundMode::kSymmetricPorts))
      << "tampered verdict must not be believed";
  EXPECT_EQ(store->stats().quarantined, 1u);
}

TEST(DiskStepStore, DistinctZeroRoundModesDoNotCollide) {
  const fs::path dir = freshDir("store-modes");
  const re::Problem p = re::misProblem(3);
  auto store = std::make_shared<DiskStepStore>(dir);
  re::EngineSession ctx;
  ctx.attachStore(store);
  (void)ctx.zeroRoundSolvable(p, re::ZeroRoundMode::kSymmetricPorts);
  (void)ctx.zeroRoundSolvable(p, re::ZeroRoundMode::kAdversarialPorts);
  (void)ctx.zeroRoundSolvable(p, re::ZeroRoundMode::kWithEdgeInputs);
  EXPECT_EQ(store->objectCount(), 3u);
}

TEST(DiskStepStore, RbarEntryUnderOtherGuardsIsAPlainMiss) {
  const fs::path dir = freshDir("store-guards");
  const re::Problem q = re::applyR(re::misProblem(3)).problem;
  re::StepOptions other;
  other.enumerationLimit = 1'000'000;  // default: 2'000'000
  {
    re::EngineSession ctx(nullptr, other);
    ctx.attachStore(std::make_shared<DiskStepStore>(dir));
    (void)ctx.applyRbar(q);
    EXPECT_EQ(ctx.stats().storeWrites, 1u);
  }

  // Same input, default guards: the entry is valid but not reusable.
  auto store = std::make_shared<DiskStepStore>(dir);
  re::EngineSession ctx;
  ctx.attachStore(store);
  const re::StepResult recomputed = ctx.applyRbar(q);
  const re::StepResult expected = re::applyRbar(q);
  EXPECT_EQ(recomputed.problem, expected.problem);
  EXPECT_EQ(recomputed.meaning, expected.meaning);
  EXPECT_EQ(store->stats().hits, 0u);
  EXPECT_EQ(store->stats().misses, 1u);
  EXPECT_EQ(store->stats().quarantined, 0u) << "a guard mismatch is not "
                                               "corruption";
  EXPECT_EQ(ctx.stats().stepMisses, 1u);
  EXPECT_TRUE(fs::is_empty(dir / "quarantine"));
}

TEST(DiskStepStore, ForgedHashCollisionIsAPlainMiss) {
  const fs::path dir = freshDir("store-collision");
  const re::Problem p = re::misProblem(3);
  const re::Problem q = re::sinklessOrientationProblem(3);
  {
    re::EngineSession ctx;
    ctx.attachStore(std::make_shared<DiskStepStore>(dir));
    (void)ctx.applyR(p);
  }
  // Forge a collision: P's valid entry, filed under Q's structural hash.
  const auto files = objectFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  const fs::path pPath = files[0];
  const std::string pHex = pPath.stem().stem().string();  // <hash16>
  const std::string qHex = [&] {
    std::uint64_t h = re::structuralHash(q);
    std::string hex(16, '0');
    for (int i = 15; i >= 0; --i, h >>= 4) {
      hex[static_cast<std::size_t>(i)] = "0123456789abcdef"[h & 0xF];
    }
    return hex;
  }();
  ASSERT_NE(pHex, qHex);
  const fs::path qPath =
      dir / "objects" / qHex.substr(0, 2) / (qHex + ".r.json");
  fs::create_directories(qPath.parent_path());
  fs::copy_file(pPath, qPath);

  auto store = std::make_shared<DiskStepStore>(dir);
  re::EngineSession ctx;
  ctx.attachStore(store);
  const re::StepResult r = ctx.applyR(q);
  const re::StepResult expected = re::applyR(q);
  EXPECT_EQ(r.problem, expected.problem);
  EXPECT_EQ(r.meaning, expected.meaning);
  EXPECT_EQ(store->stats().hits, 0u);
  EXPECT_EQ(store->stats().misses, 1u);
  EXPECT_EQ(store->stats().quarantined, 0u) << "a collision is not "
                                               "corruption";
  EXPECT_EQ(ctx.stats().stepMisses, 1u);
  EXPECT_TRUE(fs::is_empty(dir / "quarantine"));
}

}  // namespace
}  // namespace relb::store

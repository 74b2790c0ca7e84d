// FaultInjector: schedule parsing and deterministic fire semantics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/injector.h"

namespace grub::fault {
namespace {

std::unique_ptr<FaultInjector> Parse(const std::string& spec,
                                     uint64_t seed = 7) {
  auto result = FaultInjector::Parse(spec, seed);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

// Fires of `point` over `hits` consecutive hits, as a bitstring.
std::string FireString(FaultInjector& inj, const std::string& point,
                       size_t hits) {
  std::string out;
  for (size_t i = 0; i < hits; ++i) out += inj.Fire(point) ? '1' : '0';
  return out;
}

TEST(FaultInjector, OnNthHitFiresExactlyOnce) {
  auto inj = Parse("p@3");
  EXPECT_EQ(FireString(*inj, "p", 6), "001000");
  EXPECT_EQ(inj->Hits("p"), 6u);
  EXPECT_EQ(inj->Fires("p"), 1u);
}

TEST(FaultInjector, EveryNthHitFiresPeriodically) {
  auto inj = Parse("p%2");
  EXPECT_EQ(FireString(*inj, "p", 6), "010101");
}

TEST(FaultInjector, AlwaysFiresOnEveryHit) {
  auto inj = Parse("p*");
  EXPECT_EQ(FireString(*inj, "p", 4), "1111");
}

TEST(FaultInjector, MaxFiresSuffixCapsTheRule) {
  auto inj = Parse("p*x2");
  EXPECT_EQ(FireString(*inj, "p", 5), "11000");
  EXPECT_EQ(inj->Fires("p"), 2u);
}

TEST(FaultInjector, WindowStartSuffixSkipsEarlyHits) {
  // Hit counting restarts after the window: @2+3 fires on absolute hit 5.
  auto inj = Parse("p@2+3");
  EXPECT_EQ(FireString(*inj, "p", 7), "0000100");
}

TEST(FaultInjector, MultipleRulesOnOnePointUnionFire) {
  auto inj = Parse("p@2, p@5");
  EXPECT_EQ(FireString(*inj, "p", 6), "010010");
}

TEST(FaultInjector, PointsAreIndependent) {
  auto inj = Parse("a@1,b@2");
  EXPECT_TRUE(inj->Fire("a"));
  EXPECT_FALSE(inj->Fire("b"));
  EXPECT_TRUE(inj->Fire("b"));
  EXPECT_EQ(inj->TotalFires(), 2u);
  auto counts = inj->FireCounts();
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts["a"], 1u);
  EXPECT_EQ(counts["b"], 1u);
}

TEST(FaultInjector, UnscheduledPointCountsHitsButNeverFires) {
  auto inj = Parse("other@1");
  EXPECT_EQ(FireString(*inj, "p", 3), "000");
  EXPECT_EQ(inj->Hits("p"), 3u);
  EXPECT_EQ(inj->Fires("p"), 0u);
}

TEST(FaultInjector, EmptySpecNeverFires) {
  auto inj = Parse("");
  EXPECT_TRUE(inj->Rules().empty());
  EXPECT_FALSE(inj->Fire("anything"));
}

TEST(FaultInjector, ProbabilisticRulesAreSeedDeterministic) {
  auto a = Parse("p~0.5", 1234);
  auto b = Parse("p~0.5", 1234);
  EXPECT_EQ(FireString(*a, "p", 64), FireString(*b, "p", 64));
}

TEST(FaultInjector, ProbabilisticStreamsArePerPoint) {
  // The draws for point `a` must not shift when point `b` also takes hits:
  // each point owns an RNG stream seeded with seed ^ FNV1a(point).
  auto solo = Parse("a~0.5,b~0.5", 99);
  const std::string baseline = FireString(*solo, "a", 32);

  auto interleaved = Parse("a~0.5,b~0.5", 99);
  std::string a_fires;
  for (size_t i = 0; i < 32; ++i) {
    a_fires += interleaved->Fire("a") ? '1' : '0';
    interleaved->Fire("b");
    interleaved->Fire("b");
  }
  EXPECT_EQ(a_fires, baseline);
}

TEST(FaultInjector, ProbabilityZeroNeverFiresProbabilityOneAlwaysFires) {
  auto never = Parse("p~0.0");
  EXPECT_EQ(FireString(*never, "p", 16), std::string(16, '0'));
  auto always = Parse("p~1.0");
  EXPECT_EQ(FireString(*always, "p", 16), std::string(16, '1'));
}

TEST(FaultInjector, ParseRejectsMalformedRules) {
  EXPECT_FALSE(FaultInjector::Parse("no-trigger", 0).ok());
  EXPECT_FALSE(FaultInjector::Parse("@3", 0).ok());          // empty point
  EXPECT_FALSE(FaultInjector::Parse("p@0", 0).ok());         // hit index >= 1
  EXPECT_FALSE(FaultInjector::Parse("p%0", 0).ok());         // period >= 1
  EXPECT_FALSE(FaultInjector::Parse("p~1.5", 0).ok());       // p outside [0,1]
  EXPECT_FALSE(FaultInjector::Parse("p~", 0).ok());          // missing number
  EXPECT_FALSE(FaultInjector::Parse("p@1zzz", 0).ok());      // trailing garbage
  EXPECT_FALSE(FaultInjector::Parse("p*x0", 0).ok());        // cap >= 1
  EXPECT_FALSE(FaultInjector::Parse("a@1,no-trigger", 0).ok());
}

TEST(FaultInjector, ParseToleratesWhitespaceAndEmptyRules) {
  auto inj = Parse("  a@1 , , b%2  ,");
  EXPECT_EQ(inj->Rules().size(), 2u);
  EXPECT_EQ(inj->Rules()[0].point, "a");
  EXPECT_EQ(inj->Rules()[1].point, "b");
}

TEST(FaultInjector, MacroTreatsNullInjectorAsNoFault) {
  FaultInjector* none = nullptr;
  EXPECT_FALSE(GRUB_FAULT_POINT(none, "p"));
  auto inj = Parse("p*");
  EXPECT_TRUE(GRUB_FAULT_POINT(inj.get(), "p"));
}

TEST(FaultInjector, Fnv1aMatchesReferenceVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(Fnv1a(""), 14695981039346656037ULL);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a("foobar"), 0x85944171f73967e8ULL);
}

}  // namespace
}  // namespace grub::fault

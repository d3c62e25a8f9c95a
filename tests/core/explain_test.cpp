#include "core/explain.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace mapit::core {
namespace {

using testutil::MiniWorld;

TEST(Explain, InferredInterfaceTrail) {
  MiniWorld world({{"1.0.0.0/16", 100}, {"2.0.0.0/16", 200}},
                  {
                      "0|9.9.9.9|1.0.0.10 2.0.0.2",
                      "1|9.9.9.9|1.0.0.10 2.0.0.6",
                  });
  const Result result = world.run();
  const std::string text = explain(result, world.graph(), world.ip2as(),
                                   testutil::addr("1.0.0.10"));
  EXPECT_NE(text.find("interface 1.0.0.10"), std::string::npos);
  EXPECT_NE(text.find("origin AS100"), std::string::npos);
  EXPECT_NE(text.find("other side 1.0.0.9"), std::string::npos);
  EXPECT_NE(text.find("2.0.0.2_b"), std::string::npos);
  EXPECT_NE(text.find("AS200 <-> AS100 (direct)"), std::string::npos);
  EXPECT_NE(text.find("2/2 neighbours agree"), std::string::npos);
  // The backward half has no neighbours at all.
  EXPECT_NE(text.find("fewer than two neighbour addresses"),
            std::string::npos);
}

TEST(Explain, ShowsRefinedMappings) {
  // The multipass example: after refinement, 1.0.0.10_f maps to AS200 and
  // the trail for its successor must say so.
  MiniWorld world(
      {{"1.0.0.0/16", 100},
       {"2.0.0.0/16", 200},
       {"3.0.0.0/16", 300},
       {"5.0.0.0/16", 500}},
      {
          "0|9.9.9.9|1.0.0.10 2.0.0.2",
          "1|9.9.9.9|1.0.0.10 2.0.0.6",
          "2|9.9.9.9|1.0.0.10 3.0.0.1 3.0.0.50",
          "3|9.9.9.9|2.0.0.14 3.0.0.1 3.0.0.60",
          "4|9.9.9.9|5.0.0.1 3.0.0.1 3.0.0.70",
      });
  const Result result = world.run();
  const std::string text = explain(result, world.graph(), world.ip2as(),
                                   testutil::addr("3.0.0.1"));
  // 1.0.0.10_f appears in N_B with both its origin and refined mapping.
  EXPECT_NE(text.find("1.0.0.10_f  origin AS100, refined to AS200"),
            std::string::npos);
  EXPECT_NE(text.find("AS200 <-> AS300 (direct)"), std::string::npos);
}

TEST(Explain, UnknownAddress) {
  MiniWorld world({{"1.0.0.0/16", 100}},
                  {"0|9.9.9.9|1.0.0.1 1.0.0.2"});
  const Result result = world.run();
  const std::string text = explain(result, world.graph(), world.ip2as(),
                                   testutil::addr("99.99.99.99"));
  EXPECT_NE(text.find("never seen adjacent"), std::string::npos);
}

TEST(Explain, UnannouncedOrigin) {
  MiniWorld world({{"2.0.0.0/16", 200}},
                  {
                      "0|9.9.9.9|66.0.0.10 2.0.0.2",
                      "1|9.9.9.9|66.0.0.10 2.0.0.6",
                  });
  const Result result = world.run();
  const std::string text = explain(result, world.graph(), world.ip2as(),
                                   testutil::addr("66.0.0.10"));
  EXPECT_NE(text.find("origin unannounced"), std::string::npos);
}

// Golden trail for the paper's Fig 3 interface: pins the neighbour order,
// the "(N unique)" counts and the prefix-inference wording byte for byte.
MiniWorld fig3_world() {
  return MiniWorld(
      {{"198.71.44.0/22", 11537},
       {"109.105.96.0/19", 2603},
       {"199.109.0.0/16", 3754},
       {"205.233.255.0/24", 3754},
       {"216.249.136.0/24", 3754}},
      {
          "0|9.9.9.9|109.105.98.10 198.71.46.180 205.233.255.36",
          "1|9.9.9.9|109.105.98.10 198.71.46.180 216.249.136.197",
          "2|9.9.9.9|198.71.45.236 198.71.46.180 *",
          "3|9.9.9.9|109.105.98.10 198.71.46.180 199.109.5.1",
      });
}

TEST(Explain, GoldenPaperFigure3Trail) {
  MiniWorld world = fig3_world();
  const Result result = world.run();
  const std::string text = explain(result, world.graph(), world.ip2as(),
                                   testutil::addr("198.71.46.180"));
  EXPECT_EQ(text,
            "interface 198.71.46.180  origin AS11537, other side "
            "198.71.46.181 (/31, reserved /30 slot)\n"
            "  198.71.46.180_f  (forward neighbours N_F, 3 unique)\n"
            "    199.109.5.1_b  origin AS3754\n"
            "    205.233.255.36_b  origin AS3754\n"
            "    216.249.136.197_b  origin AS3754\n"
            "    => 198.71.46.180_f: AS3754 <-> AS11537 (direct)  "
            "[3/3 neighbours agree]\n"
            "  198.71.46.180_b  (backward neighbours N_B, 2 unique)\n"
            "    109.105.98.10_f  origin AS2603, refined to AS11537\n"
            "    198.71.45.236_f  origin AS11537\n"
            "    => no inference (no qualifying foreign-AS majority)\n");
}

TEST(Explain, GoldenPhantomAddress) {
  // 198.71.46.181 is only ever an other side (a phantom half id): it has
  // no neighbours, so the trail stops after the origin.
  MiniWorld world = fig3_world();
  const Result result = world.run();
  const graph::HalfId id = world.graph().half_id(
      graph::forward_half(testutil::addr("198.71.46.181")));
  ASSERT_NE(id, graph::kInvalidHalfId);
  EXPECT_GE(id, world.graph().record_half_count());
  const std::string text = explain(result, world.graph(), world.ip2as(),
                                   testutil::addr("198.71.46.181"));
  EXPECT_EQ(text,
            "interface 198.71.46.181  origin AS11537\n"
            "  never seen adjacent to another address in the corpus\n");
}

}  // namespace
}  // namespace mapit::core

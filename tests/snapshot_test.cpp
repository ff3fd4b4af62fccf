// dlb::snapshot — the byte-exactness contract, attacked from every angle:
// the wire format (golden header bytes, truncation, bit flips, hostile
// length fields under a valid checksum, a committed golden fixture), the
// engine's file-level checkpoint entry points, and the
// crash-at-every-round property — every competitor, snapshotted after each
// round r of a run with mid-stream arrivals, restored into a *fresh*
// process, must finish with bit-identical state (loads, real loads, dummy
// counters, and the full save_state payload) to the uninterrupted run, at
// shard-thread counts 1 and 8.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dlb/baselines/excess_tokens.hpp"
#include "dlb/baselines/local_rounding.hpp"
#include "dlb/baselines/random_walk_balancer.hpp"
#include "dlb/core/algorithm1.hpp"
#include "dlb/core/algorithm2.hpp"
#include "dlb/core/diffusion_matrix.hpp"
#include "dlb/core/engine.hpp"
#include "dlb/core/linear_process.hpp"
#include "dlb/core/sharding.hpp"
#include "dlb/graph/generators.hpp"
#include "dlb/snapshot/snapshot.hpp"
#include "dlb/workload/competitors.hpp"
#include "dlb/workload/initial_load.hpp"

namespace dlb {
namespace {

std::shared_ptr<const graph> make_g(graph g) {
  return std::make_shared<const graph>(std::move(g));
}

/// The complete save_state payload — the strongest equality there is: two
/// processes with identical payloads continue identically forever.
std::vector<std::uint8_t> state_bytes(const discrete_process& d) {
  snapshot::writer w;
  snapshot::require_checkpointable(d, "process").save_state(w);
  return w.payload();
}

// ------------------------------------------------------- wire format

TEST(SnapshotFormatTest, GoldenHeaderBytesArePinned) {
  snapshot::writer w;
  w.section("hdr");
  w.u64(7);
  const std::vector<std::uint8_t> framed = w.framed();
  // Offsets 0..7: magic. 8..11: version (LE u32). Pinned — changing either
  // is a wire-format break and must come with a format_version bump and a
  // regenerated golden fixture.
  ASSERT_GE(framed.size(), 28u);
  EXPECT_EQ(0, std::memcmp(framed.data(), "DLBSNAP\0", 8));
  EXPECT_EQ(framed[8], 1u);
  EXPECT_EQ(framed[9], 0u);
  EXPECT_EQ(framed[10], 0u);
  EXPECT_EQ(framed[11], 0u);
}

TEST(SnapshotFormatTest, AllFieldTypesRoundTrip) {
  snapshot::writer w;
  w.section("everything");
  w.u8(250);
  w.u64(0xdeadbeefcafe);
  w.i64(-12345678901234);
  w.f64(0.1 + 0.2);  // not exactly 0.3 — restore must be bit-exact anyway
  w.str("a string with \0 inside" /* truncated at the NUL by the literal */);
  w.vec_f64({1.5, -2.25, 1e-300});
  w.vec_int(std::vector<weight_t>{-5, 0, 7});
  w.vec_int(std::vector<node_id>{1, 2, 3});

  snapshot::reader r = snapshot::reader::from_bytes(w.framed());
  r.expect_section("everything");
  EXPECT_EQ(r.u8(), 250);
  EXPECT_EQ(r.u64(), 0xdeadbeefcafeu);
  EXPECT_EQ(r.i64(), -12345678901234);
  EXPECT_EQ(r.f64(), 0.1 + 0.2);
  EXPECT_EQ(r.str(), "a string with ");
  EXPECT_EQ(r.vec_f64(), (std::vector<double>{1.5, -2.25, 1e-300}));
  EXPECT_EQ(r.vec_int<weight_t>(), (std::vector<weight_t>{-5, 0, 7}));
  EXPECT_EQ(r.vec_int<node_id>(), (std::vector<node_id>{1, 2, 3}));
  EXPECT_TRUE(r.exhausted());
}

TEST(SnapshotFormatTest, TruncatedFilesFailWithOneLine) {
  snapshot::writer w;
  w.section("s");
  w.vec_f64(std::vector<double>(64, 1.0));
  const std::vector<std::uint8_t> framed = w.framed();
  // Below the header: "shorter than the header". Above it but below the
  // promised payload: "file carries".
  for (const std::size_t keep : {0u, 5u, 27u}) {
    const std::vector<std::uint8_t> cut(framed.begin(),
                                        framed.begin() + keep);
    EXPECT_THROW((void)snapshot::reader::from_bytes(cut), contract_violation);
  }
  try {
    const std::vector<std::uint8_t> cut(framed.begin(), framed.end() - 9);
    (void)snapshot::reader::from_bytes(cut);
    FAIL() << "truncated payload must not parse";
  } catch (const contract_violation& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(SnapshotFormatTest, BitFlippedPayloadFailsChecksum) {
  snapshot::writer w;
  w.section("s");
  w.u64(1234567);
  std::vector<std::uint8_t> framed = w.framed();
  framed[framed.size() - 3] ^= 0x10;  // flip one payload bit
  try {
    (void)snapshot::reader::from_bytes(framed);
    FAIL() << "corrupted payload must not parse";
  } catch (const contract_violation& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(SnapshotFormatTest, WrongMagicAndVersionAreRejected) {
  snapshot::writer w;
  w.u64(1);
  std::vector<std::uint8_t> bad_magic = w.framed();
  bad_magic[0] = 'X';
  EXPECT_THROW((void)snapshot::reader::from_bytes(bad_magic),
               contract_violation);
  std::vector<std::uint8_t> bad_version = w.framed();
  bad_version[8] = 99;
  try {
    (void)snapshot::reader::from_bytes(bad_version);
    FAIL() << "unknown version must not parse";
  } catch (const contract_violation& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(SnapshotFormatTest, TagAndSectionMismatchesNameTheDrift) {
  snapshot::writer w;
  w.section("ledger");
  w.u64(3);
  snapshot::reader wrong_section = snapshot::reader::from_bytes(w.framed());
  EXPECT_THROW(wrong_section.expect_section("tasks"), contract_violation);
  snapshot::reader wrong_tag = snapshot::reader::from_bytes(w.framed());
  wrong_tag.expect_section("ledger");
  EXPECT_THROW((void)wrong_tag.i64(), contract_violation);  // wrote u64
  snapshot::reader wrong_guard = snapshot::reader::from_bytes(w.framed());
  wrong_guard.expect_section("ledger");
  EXPECT_THROW(wrong_guard.expect_u64(4, "node count"), contract_violation);
}

/// `framed` with the u64 at payload offset `at` replaced by `v` and the
/// checksum recomputed: a hostile length field that passes every frame
/// check, so only the reader's own bounds can stop it.
std::vector<std::uint8_t> with_payload_u64(std::vector<std::uint8_t> framed,
                                           std::size_t at, std::uint64_t v) {
  constexpr std::size_t header = 28;  // magic, version, size, checksum
  for (std::size_t b = 0; b < 8; ++b) {
    framed[header + at + b] = static_cast<std::uint8_t>(v >> (8 * b));
  }
  const std::uint64_t sum =
      snapshot::fnv1a(framed.data() + header, framed.size() - header);
  for (std::size_t b = 0; b < 8; ++b) {
    framed[20 + b] = static_cast<std::uint8_t>(sum >> (8 * b));
  }
  return framed;
}

void expect_one_line_violation(const std::function<void()>& read,
                               const std::string& what) {
  try {
    read();
    FAIL() << what << " must not parse";
  } catch (const contract_violation& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
    EXPECT_EQ(msg.rfind("snapshot: ", 0), 0u) << msg;
  }
}

TEST(SnapshotFormatTest, HostileLengthFieldsFailWithOneLine) {
  // Payload offset 1 is the length right after the first field's tag byte.
  constexpr std::uint64_t huge_count = std::uint64_t{1} << 60;
  constexpr std::uint64_t max_len = ~std::uint64_t{0};
  snapshot::writer floats;
  floats.vec_f64({1.0, 2.0});
  const auto floats_bomb = with_payload_u64(floats.framed(), 1, huge_count);
  expect_one_line_violation(
      [&] { (void)snapshot::reader::from_bytes(floats_bomb).vec_f64(); },
      "a 2^60-element vec_f64");

  snapshot::writer ints;
  ints.vec_int(std::vector<weight_t>{1, 2});
  const auto ints_bomb = with_payload_u64(ints.framed(), 1, huge_count);
  expect_one_line_violation(
      [&] {
        (void)snapshot::reader::from_bytes(ints_bomb).vec_int<weight_t>();
      },
      "a 2^60-element vec_i64");

  snapshot::writer text;
  text.str("abc");
  const auto text_bomb = with_payload_u64(text.framed(), 1, max_len);
  expect_one_line_violation(
      [&] { (void)snapshot::reader::from_bytes(text_bomb).str(); },
      "a (2^64-1)-byte string");

  snapshot::writer sec;
  sec.section("s");
  const auto sec_bomb = with_payload_u64(sec.framed(), 1, max_len);
  expect_one_line_violation(
      [&] { snapshot::reader::from_bytes(sec_bomb).expect_section("s"); },
      "a (2^64-1)-byte section name");
}

TEST(SnapshotFormatTest, SaveFileIsAtomicAndRoundTrips) {
  const std::string path = ::testing::TempDir() + "snapshot_atomic.ckpt";
  snapshot::writer first;
  first.section("v");
  first.u64(1);
  first.save_file(path);
  snapshot::writer second;
  second.section("v");
  second.u64(2);
  second.save_file(path);  // overwrites via tmp + rename
  snapshot::reader r = snapshot::reader::from_file(path);
  r.expect_section("v");
  EXPECT_EQ(r.u64(), 2u);
  std::remove(path.c_str());
  EXPECT_THROW((void)snapshot::reader::from_file(path), contract_violation);
}

// A fixture committed to the repo: restoring it into today's build and
// continuing must equal a from-scratch run. If this fails, the wire format
// or a competitor's state layout changed — bump format_version and
// regenerate with tools/make_snapshot_fixture (see tests/fixtures/).
TEST(SnapshotFormatTest, GoldenFixtureStillRestores) {
  const std::string path =
      std::string(DLB_TEST_FIXTURE_DIR) + "/snapshot_v1.ckpt";
  const auto g = make_g(generators::path(8));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::point_mass(g->num_nodes(), 0, 120);
  const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);

  algorithm1 restored(make_fos(g, s, alpha), task_assignment::tokens(tokens));
  const round_t at = restore_checkpoint(restored, path);
  EXPECT_EQ(at, 5);

  algorithm1 fresh(make_fos(g, s, alpha), task_assignment::tokens(tokens));
  run_rounds(fresh, 5);
  EXPECT_EQ(state_bytes(restored), state_bytes(fresh))
      << "the committed golden fixture no longer matches a fresh run — "
         "wire-format or state-layout drift without a version bump";
}

TEST(SnapshotFormatTest, RequireCheckpointableNamesTheComponent) {
  struct plain {
    virtual ~plain() = default;
  } p;
  try {
    (void)snapshot::require_checkpointable(p, "the custom process");
    FAIL();
  } catch (const contract_violation& e) {
    EXPECT_NE(std::string(e.what()).find("the custom process"),
              std::string::npos);
  }
}

// ------------------------------------------- crash at every round, 5×{1,8}

struct competitor_case {
  std::string name;
  std::function<std::unique_ptr<discrete_process>(
      std::shared_ptr<const graph>, const speed_vector&,
      const std::vector<weight_t>&, std::uint64_t)>
      build;
};

std::vector<competitor_case> all_competitors() {
  std::vector<competitor_case> cases;
  cases.push_back({"algorithm1",
                   [](std::shared_ptr<const graph> g, const speed_vector& s,
                      const std::vector<weight_t>& tokens, std::uint64_t) {
                     return std::make_unique<algorithm1>(
                         make_fos(g, s,
                                  make_alphas(*g,
                                              alpha_scheme::half_max_degree)),
                         task_assignment::tokens(tokens));
                   }});
  cases.push_back(
      {"algorithm2",
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, std::uint64_t seed) {
         return std::make_unique<algorithm2>(
             make_fos(g, s, make_alphas(*g, alpha_scheme::half_max_degree)),
             tokens, seed);
       }});
  cases.push_back(
      {"local_rounding",
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, std::uint64_t seed) {
         return std::make_unique<local_rounding_process>(
             g, s,
             std::make_unique<diffusion_alpha_schedule>(
                 make_alphas(*g, alpha_scheme::half_max_degree)),
             rounding_policy::randomized_fraction, tokens, seed);
       }});
  cases.push_back(
      {"excess_tokens",
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, std::uint64_t seed) {
         return std::make_unique<excess_token_process>(
             g, s, make_alphas(*g, alpha_scheme::half_max_degree), tokens,
             seed);
       }});
  cases.push_back(
      {"random_walk_balancer",
       [](std::shared_ptr<const graph> g, const speed_vector& s,
          const std::vector<weight_t>& tokens, std::uint64_t seed) {
         // phase1_rounds = 5 so restore points straddle the coarse → fine
         // transition (both phase kinds must resume exactly).
         return std::make_unique<random_walk_balancer>(
             g, s, make_alphas(*g, alpha_scheme::half_max_degree), tokens,
             seed,
             random_walk_config{
                 .phase1_rounds = 5, .slack = 1, .laziness = 0.5});
       }});
  return cases;
}

class SnapshotCrashTest : public ::testing::TestWithParam<competitor_case> {};

/// Steps `d` from round `from` to round `to`, injecting the test's mid-run
/// arrival where it falls — the continuation after a restore must replay
/// the identical traffic the uninterrupted run saw.
void drive(discrete_process& d, round_t from, round_t to) {
  for (round_t t = from; t < to; ++t) {
    if (t == 7) d.inject_tokens(3, 17);
    d.step();
  }
}

// The tentpole property: kill at round r, restore in a fresh process,
// continue — for EVERY r, and at shard-thread counts 1 and 8. Equality is
// taken on the full serialized state, which subsumes loads, pools, flows,
// walkers and round counters in one comparison.
TEST_P(SnapshotCrashTest, ResumeAtEveryRoundIsBitExact) {
  const auto g = make_g(generators::ring_of_cliques(6, 5));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::spike_workload(*g, s, /*spike_per_node=*/20);
  constexpr std::uint64_t seed = 42;
  constexpr round_t rounds = 20;

  for (const std::size_t shards : {1u, 8u}) {
    const auto reference = GetParam().build(g, s, tokens, seed);
    if (shards > 1) {
      reference->enable_sharded_stepping(serial_shard_context(*g, shards));
    }
    drive(*reference, 0, rounds);
    const std::vector<std::uint8_t> want = state_bytes(*reference);

    for (round_t r = 0; r <= rounds; ++r) {
      // The doomed run: advance to round r, then "crash" — all that
      // survives is the snapshot payload.
      const auto doomed = GetParam().build(g, s, tokens, seed);
      if (shards > 1) {
        doomed->enable_sharded_stepping(serial_shard_context(*g, shards));
      }
      drive(*doomed, 0, r);
      snapshot::writer w;
      snapshot::require_checkpointable(*doomed, "process").save_state(w);

      // The fresh process (a new OS process in production): same config,
      // restore, continue to the end.
      const auto resumed = GetParam().build(g, s, tokens, seed);
      if (shards > 1) {
        resumed->enable_sharded_stepping(serial_shard_context(*g, shards));
      }
      snapshot::reader rd(w.payload());
      snapshot::require_checkpointable(*resumed, "process").restore_state(rd);
      EXPECT_TRUE(rd.exhausted());
      ASSERT_EQ(resumed->rounds_executed(), r);
      drive(*resumed, r, rounds);

      ASSERT_EQ(resumed->loads(), reference->loads())
          << GetParam().name << " shards=" << shards << " killed at " << r;
      ASSERT_EQ(resumed->real_loads(), reference->real_loads());
      ASSERT_EQ(resumed->dummy_created(), reference->dummy_created());
      ASSERT_EQ(state_bytes(*resumed), want)
          << GetParam().name << " shards=" << shards << " killed at " << r
          << ": full state diverged";
    }
  }
}

// Restoring into the wrong process type, or the right type on the wrong
// topology, must fail on the fingerprint — never restore garbage silently.
TEST_P(SnapshotCrashTest, MismatchedConfigurationIsRejected) {
  const auto g = make_g(generators::ring_of_cliques(6, 5));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::spike_workload(*g, s, 20);
  const auto p = GetParam().build(g, s, tokens, 42);
  run_rounds(*p, 3);
  snapshot::writer w;
  snapshot::require_checkpointable(*p, "process").save_state(w);

  const auto g2 = make_g(generators::torus_2d(6));
  const speed_vector s2 = uniform_speeds(g2->num_nodes());
  const auto tokens2 = workload::spike_workload(*g2, s2, 20);
  const auto other = GetParam().build(g2, s2, tokens2, 42);
  snapshot::reader rd(w.payload());
  EXPECT_THROW(
      snapshot::require_checkpointable(*other, "process").restore_state(rd),
      contract_violation);
}

INSTANTIATE_TEST_SUITE_P(
    AllCompetitors, SnapshotCrashTest, ::testing::ValuesIn(all_competitors()),
    [](const ::testing::TestParamInfo<competitor_case>& tpi) {
      return tpi.param.name;
    });

// ----------------------------------------------- engine file entry points

TEST(EngineCheckpointTest, SaveRestoreFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "engine_roundtrip.ckpt";
  const auto g = make_g(generators::hypercube(4));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::spike_workload(*g, s, 12);
  const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);

  algorithm2 p(make_fos(g, s, alpha), tokens, /*seed=*/9);
  run_rounds(p, 6);
  save_checkpoint(p, path);

  algorithm2 q(make_fos(g, s, alpha), tokens, /*seed=*/9);
  EXPECT_EQ(restore_checkpoint(q, path), 6);
  EXPECT_EQ(state_bytes(q), state_bytes(p));
  std::remove(path.c_str());
}

TEST(EngineCheckpointTest, RunRoundsCheckpointedResumesExactly) {
  const std::string path = ::testing::TempDir() + "engine_resume.ckpt";
  const auto g = make_g(generators::hypercube(4));
  const speed_vector s = uniform_speeds(g->num_nodes());
  const auto tokens = workload::spike_workload(*g, s, 12);
  const auto alpha = make_alphas(*g, alpha_scheme::half_max_degree);
  constexpr round_t target = 17;

  algorithm1 reference(make_fos(g, s, alpha), task_assignment::tokens(tokens));
  run_rounds(reference, target);

  // First invocation dies after 7 rounds (simulated: just stop driving).
  algorithm1 first(make_fos(g, s, alpha), task_assignment::tokens(tokens));
  run_rounds_checkpointed(first, /*target=*/7, {.path = path, .every = 3});

  // Relaunch: same arguments plus resume. Picks up at the last snapshot and
  // finishes; state equals the uninterrupted run bit-for-bit.
  algorithm1 second(make_fos(g, s, alpha), task_assignment::tokens(tokens));
  run_rounds_checkpointed(second, target,
                          {.path = path, .every = 3, .resume = true});
  EXPECT_EQ(second.rounds_executed(), target);
  EXPECT_EQ(state_bytes(second), state_bytes(reference));

  // And the final file is the finished state.
  algorithm1 third(make_fos(g, s, alpha), task_assignment::tokens(tokens));
  EXPECT_EQ(restore_checkpoint(third, path), target);
  EXPECT_EQ(state_bytes(third), state_bytes(reference));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dlb

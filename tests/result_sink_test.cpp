// Row wire formats: JSON and CSV round-trip exactly through write_rows (the
// one row framing), timing can be masked, and malformed input is rejected.
#include "dlb/runtime/result_sink.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "dlb/common/contracts.hpp"
#include "dlb/common/json.hpp"

namespace dlb::runtime {
namespace {

result_row sample_row() {
  result_row row;
  row.cell = 42;
  row.grid = "table1";
  row.scenario = "hypercube(dim=7)";
  row.process = "Alg1 (this paper)";
  row.model = "diffusion";
  row.n = 128;
  row.seed = 0xdeadbeefcafef00dULL;
  row.rounds = 1234;
  row.converged = true;
  row.final_max_min = 6.25;
  row.final_max_avg = 3.125;
  row.mean_max_min = 0.1;
  row.peak_max_min = 17;
  row.dummy_created = 3;
  row.wall_ns = 987654321;
  return row;
}

TEST(ResultSinkTest, RowRoundTripsThroughJson) {
  const result_row row = sample_row();
  EXPECT_EQ(parse_row(to_json(row)), row);
}

TEST(ResultSinkTest, ExtraMetricsRoundTripInOrder) {
  result_row row = sample_row();
  row.extra = {{"floor", 8}, {"threshold", 31}, {"t/T=0.5", 12.625}};
  const std::string json = to_json(row);
  EXPECT_NE(json.find("\"extra\":{\"floor\":8,\"threshold\":31"),
            std::string::npos);
  EXPECT_EQ(parse_row(json), row);
  EXPECT_EQ(row.extra_value("threshold"), 31);
  EXPECT_EQ(row.extra_value("absent", -1), -1);
}

TEST(ResultSinkTest, EmptyExtrasOmittedFromJson) {
  // Rows without study metrics keep the PR-1 wire format byte-for-byte.
  EXPECT_EQ(to_json(sample_row()).find("extra"), std::string::npos);
}

TEST(ResultSinkTest, RoundTripPreservesAwkwardReals) {
  result_row row = sample_row();
  row.final_max_min = 0.1 + 0.2;          // 0.30000000000000004
  row.final_max_avg = 1.0 / 3.0;
  row.mean_max_min = 1e-300;
  row.peak_max_min = 123456789.123456789;
  EXPECT_EQ(parse_row(to_json(row)), row);
}

TEST(ResultSinkTest, RoundTripPreservesStringEscapes) {
  result_row row = sample_row();
  row.process = "weird \"name\" with \\ and \n and \t";
  row.scenario = std::string("ctrl: ") + char(1);
  EXPECT_EQ(parse_row(to_json(row)), row);
}

// The one JSON string escaper (rows, traces and profile sidecars all use
// it): every escaped class, byte for byte.
TEST(ResultSinkTest, JsonStringEscapesEveryClassExactly) {
  // Adjacent literals end each \x escape: "\x01f" alone would be 0x1f.
  const std::string text = "a\"b\\c\nd\te\x01" "f\x1f" "g\x7f\xc3\xa9";
  const std::string want =
      "\"a\\\"b\\\\c\\nd\\te\\u0001f\\u001fg\x7f\xc3\xa9\"";
  EXPECT_EQ(json_string(text), want);
  std::string appended = "x:";
  append_json_string(appended, text);
  EXPECT_EQ(appended, "x:" + want);
  result_row row = sample_row();
  row.grid = text;
  EXPECT_NE(to_json(row).find("\"grid\":" + want + ","), std::string::npos);
}

TEST(ResultSinkTest, TimingExcludeMasksWallClockOnly) {
  const result_row row = sample_row();
  result_row masked = parse_row(to_json(row, timing::exclude));
  EXPECT_EQ(masked.wall_ns, 0);
  masked.wall_ns = row.wall_ns;
  EXPECT_EQ(masked, row);
}

TEST(ResultSinkTest, SchemaCarriesTheIssueFields) {
  const std::string json = to_json(sample_row());
  for (const char* key :
       {"\"scenario\"", "\"process\"", "\"n\"", "\"seed\"", "\"rounds\"",
        "\"final_max_min\"", "\"final_max_avg\"", "\"dummy_created\"",
        "\"wall_ns\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

std::string json_of(const std::vector<result_row>& rows,
                    timing t = timing::include) {
  std::ostringstream os;
  write_rows(os, rows, sink_format::json, t);
  return os.str();
}

TEST(ResultSinkTest, ArrayRoundTripsThroughWriteRows) {
  std::vector<result_row> rows{sample_row(), sample_row()};
  rows[1].cell = 43;
  rows[1].process = "weird \"name\" with \\ and \n and \t";
  rows[1].extra = {{"floor", 8}, {"t/T=0.5", 12.625}};
  EXPECT_EQ(parse_json(json_of(rows)), rows);
  auto masked = parse_json(json_of(rows, timing::exclude));
  for (result_row& row : masked) {
    EXPECT_EQ(row.wall_ns, 0);
    row.wall_ns = sample_row().wall_ns;
  }
  EXPECT_EQ(masked, rows);
}

TEST(ResultSinkTest, ArrayFramingIsOneObjectPerLine) {
  // The bytes dlb_run prints and the BENCH_*.json files hold.
  const result_row a = sample_row();
  EXPECT_EQ(json_of({}), "[\n]\n");
  EXPECT_TRUE(parse_json(json_of({})).empty());
  EXPECT_EQ(json_of({a, a}),
            "[\n  " + to_json(a) + ",\n  " + to_json(a) + "\n]\n");
}

TEST(ResultSinkTest, MalformedJsonThrows) {
  EXPECT_THROW((void)parse_row("{\"cell\":"), contract_violation);
  EXPECT_THROW((void)parse_row("not json"), contract_violation);
  EXPECT_THROW((void)parse_json("[{}"), contract_violation);
}

// --- CSV backend: same row schema, same exactness guarantees as JSON ----

std::string csv_of(const std::vector<result_row>& rows,
                   timing t = timing::include) {
  std::ostringstream os;
  write_rows(os, rows, sink_format::csv, t);
  return os.str();
}

TEST(ResultSinkCsvTest, ArrayRoundTripsThroughWriteRows) {
  std::vector<result_row> rows{sample_row(), sample_row()};
  rows[1].cell = 43;
  rows[1].process = "round-down [37]";
  rows[1].extra = {{"floor", 8}, {"t/T=0.5", 12.625}};  // '=' inside a key
  EXPECT_EQ(parse_csv(csv_of(rows)), rows);
}

TEST(ResultSinkCsvTest, RoundTripPreservesAwkwardRealsAndEscapes) {
  result_row row = sample_row();
  row.final_max_min = 0.1 + 0.2;  // 0.30000000000000004
  row.final_max_avg = 1.0 / 3.0;
  row.mean_max_min = 1e-300;
  row.process = "weird \"name\", with comma and \n newline";
  row.scenario = "plain";
  const auto parsed = parse_csv(csv_of({row}));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], row);
}

TEST(ResultSinkCsvTest, TimingExcludeMasksWallClockOnly) {
  const result_row row = sample_row();
  auto masked = parse_csv(csv_of({row}, timing::exclude));
  ASSERT_EQ(masked.size(), 1u);
  EXPECT_EQ(masked[0].wall_ns, 0);
  masked[0].wall_ns = row.wall_ns;
  EXPECT_EQ(masked[0], row);
}

TEST(ResultSinkCsvTest, HeaderCarriesTheSchemaAndEmptyRoundTrips) {
  const std::string empty = csv_of({});
  EXPECT_EQ(empty,
            "cell,grid,scenario,process,model,n,seed,rounds,converged,"
            "final_max_min,final_max_avg,mean_max_min,peak_max_min,"
            "dummy_created,extra,wall_ns\n");
  EXPECT_TRUE(parse_csv(empty).empty());
}

TEST(ResultSinkCsvTest, MalformedCsvThrows) {
  EXPECT_THROW((void)parse_csv("not,the,header\n1,2,3\n"),
               contract_violation);
  EXPECT_THROW((void)parse_csv(csv_of({}) + "1,short,row\n"),
               contract_violation);
}

TEST(ResultSinkCsvTest, ParseFormatNamesTheBackends) {
  EXPECT_EQ(parse_format("csv"), sink_format::csv);
  EXPECT_EQ(parse_format("json"), sink_format::json);
  EXPECT_THROW((void)parse_format("xml"), contract_violation);
}

}  // namespace
}  // namespace dlb::runtime

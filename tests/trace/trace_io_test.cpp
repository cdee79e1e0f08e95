#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "trace/generator.hpp"

namespace corp::trace {
namespace {

Trace sample_trace() {
  GeneratorConfig config;
  config.num_jobs = 10;
  config.horizon_slots = 20;
  GoogleTraceGenerator gen(config);
  util::Rng rng(77);
  return gen.generate(rng);
}

std::vector<std::string> split_line(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in(line);
  std::string field;
  while (std::getline(in, field, ',')) fields.push_back(field);
  return fields;
}

TEST(TraceIoTest, FirstRowMatchesJob) {
  const Trace trace = sample_trace();
  ASSERT_GT(trace.size(), 0u);
  std::ostringstream out;
  write_trace_csv(trace, out);
  std::istringstream in(out.str());
  std::string header;
  std::string row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_EQ(split_line(header),
            (std::vector<std::string>{
                "job_id", "class", "submit_slot", "duration_slots",
                "slo_stretch", "req_cpu", "req_mem", "req_storage", "slot",
                "use_cpu", "use_mem", "use_storage"}));

  const Job& job = trace.jobs().front();
  const std::vector<double> expected{
      static_cast<double>(job.id),
      static_cast<double>(static_cast<int>(job.job_class)),
      static_cast<double>(job.submit_slot),
      static_cast<double>(job.duration_slots),
      job.slo_stretch,
      job.request.cpu(),
      job.request.memory(),
      job.request.storage(),
      0.0,
      job.usage[0].cpu(),
      job.usage[0].memory(),
      job.usage[0].storage()};
  const std::vector<std::string> fields = split_line(row);
  ASSERT_EQ(fields.size(), expected.size());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    // 12 significant digits: relative error at most half a unit in the
    // twelfth digit.
    EXPECT_NEAR(std::stod(fields[i]), expected[i],
                5e-12 * std::abs(expected[i]))
        << "column " << i << " ('" << fields[i] << "')";
  }
}

TEST(TraceIoTest, RowCountMatchesTotalSlots) {
  const Trace trace = sample_trace();
  std::size_t total_slots = 0;
  for (const Job& job : trace.jobs()) total_slots += job.usage.size();
  std::ostringstream out;
  write_trace_csv(trace, out);
  std::size_t lines = 0;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, total_slots + 1);  // + header
}

TEST(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(write_trace_csv_file(Trace{}, "/nonexistent/dir/trace.csv"),
               std::runtime_error);
}

TEST(TraceIoTest, FileMatchesStreamOutput) {
  const Trace original = sample_trace();
  const std::string path = testing::TempDir() + "/corp_trace_test.csv";
  write_trace_csv_file(original, path);
  std::ostringstream expected;
  write_trace_csv(original, expected);
  std::ifstream in(path);
  std::ostringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), expected.str());
}

}  // namespace
}  // namespace corp::trace

// Self-tests of the benchmark's oracles: each check accepts a correct
// input and rejects a deliberately wrong one (a count off by one, a
// dropped partition, a corrupted compressed stream, an unbalanced plan).
// Exit status 0 = every case behaved; prints each failing case.
#include <cmath>
#include <iostream>
#include <string>

#include "compress/webgraph.h"
#include "data/generators.h"
#include "mining/apriori.h"
#include "oracles.h"
#include "workloads.h"

namespace {

using namespace hetsim;
using namespace hetbench;

int failures = 0;

void expect_pass(const std::string& name, const Verdict& v) {
  if (v.empty()) return;
  ++failures;
  std::cerr << "FAIL " << name << ": correct input rejected: " << v << '\n';
}

void expect_reject(const std::string& name, const Verdict& v) {
  if (!v.empty()) return;
  ++failures;
  std::cerr << "FAIL " << name << ": wrong input accepted\n";
}

runtime::JobSummary good_summary() {
  runtime::JobSummary s;
  s.status = runtime::JobStatus::kOk;
  s.initial_sizes = {40, 30, 20, 10};
  s.processed = {38, 32, 20, 10};  // migrations move records, not totals
  s.dirty_energy_j = 12.5;
  return s;
}

void test_status() {
  expect_pass("status ok", check_status(good_summary()));
  runtime::JobSummary s = good_summary();
  s.status = runtime::JobStatus::kDegraded;
  expect_reject("status degraded", check_status(s));
  s.status = runtime::JobStatus::kDataUnavailable;
  expect_reject("status data unavailable", check_status(s));
}

void test_conservation() {
  expect_pass("conservation", check_conservation(good_summary(), 100, 4));
  runtime::JobSummary s = good_summary();
  s.processed.pop_back();  // a dropped partition
  expect_reject("dropped processed partition", check_conservation(s, 100, 4));
  s = good_summary();
  s.initial_sizes.pop_back();
  expect_reject("dropped planned partition", check_conservation(s, 100, 4));
  s = good_summary();
  s.processed[3] = 0;  // the partition's records were never processed
  expect_reject("emptied partition", check_conservation(s, 100, 4));
  s = good_summary();
  s.processed[0] += 1;
  expect_reject("processed off by one", check_conservation(s, 100, 4));
  s = good_summary();
  s.initial_sizes[2] -= 1;
  expect_reject("planned off by one", check_conservation(s, 100, 4));
}

void test_energy() {
  expect_pass("energy", check_energy(good_summary()));
  runtime::JobSummary s = good_summary();
  s.dirty_energy_j = 0.0;
  expect_pass("zero energy", check_energy(s));
  s.dirty_energy_j = -1e-9;
  expect_reject("negative energy", check_energy(s));
  s.dirty_energy_j = std::nan("");
  expect_reject("NaN energy", check_energy(s));
}

void test_frequent_counts() {
  // The references themselves: the subtree reference must find
  // patterns on a small corpus, and the fpgrowth reference must agree
  // with a third algorithm (apriori) on a small text corpus.
  data::TreeCorpusConfig tcfg = data::swissprot_like(0.1);
  const auto trees = data::generate_trees(tcfg);
  const std::size_t subtrees = reference_subtree_count(trees, 0.1, 3);
  expect_pass("subtree count", check_equal("frequent", subtrees, subtrees));
  expect_reject("subtree count +1",
                check_equal("frequent", subtrees + 1, subtrees));
  expect_reject("subtree count -1",
                check_equal("frequent", subtrees - 1, subtrees));
  if (subtrees == 0) {
    ++failures;
    std::cerr << "FAIL subtree reference found no frequent subtrees\n";
  }

  const data::Dataset text =
      data::generate_text_corpus(data::rcv1_like(0.1), "text");
  const std::size_t itemsets = reference_itemset_count(text, 0.1, 3);
  std::vector<data::ItemSet> docs;
  for (const data::Record& r : text.records) docs.push_back(r.items);
  const std::size_t by_apriori =
      mining::apriori(docs, {.min_support = 0.1, .max_pattern_length = 3})
          .frequent.size();
  expect_pass("fpgrowth agrees with apriori",
              check_equal("frequent", itemsets, by_apriori));
  expect_reject("itemset count +1",
                check_equal("frequent", itemsets + 1, by_apriori));
}

void test_raw_bytes_and_codec() {
  const data::Dataset graph =
      data::generate_graph_corpus(data::uk_like(0.05), "webgraph");
  const auto lists = adjacency_lists(graph);
  const std::uint64_t raw = reference_raw_bytes(graph);
  expect_pass("raw bytes",
              check_equal("raw", compress::raw_adjacency_bytes(lists), raw));
  expect_reject("raw bytes off by one",
                check_equal("raw", raw - 1, raw));

  const std::string blob = compress::compress_adjacency(lists);
  expect_pass("lossless", check_lossless(lists, blob));

  std::string corrupt = blob;
  corrupt[corrupt.size() / 2] = static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x5a);
  expect_reject("corrupted stream", check_lossless(lists, corrupt));
  expect_reject("truncated stream",
                check_lossless(lists, std::string_view(blob).substr(0, blob.size() / 2)));

  auto altered = lists;
  altered.back().push_back(altered.back().empty() ? 1 : altered.back().back() + 1);
  expect_reject("stream of other lists", check_lossless(altered, blob));

  // Lossless but not smaller: an incompressible single short list.
  const std::vector<std::vector<std::uint32_t>> tiny = {{0}};
  const std::string tiny_blob = compress::compress_adjacency(tiny);
  const std::string padded = tiny_blob + std::string(16, '\0');
  expect_reject("ratio not above 1", check_lossless(tiny, padded));
}

void test_waterfill() {
  // Slopes 1/4, 1/3, 1/2, 1 (the standard speeds), no intercepts.
  const std::vector<optimize::NodeModel> models = {
      {.slope = 0.25}, {.slope = 1.0 / 3.0}, {.slope = 0.5}, {.slope = 1.0}};
  const std::vector<std::size_t> balanced = {400, 300, 200, 100};
  expect_pass("waterfill", check_waterfill(models, balanced, 1000));
  const std::vector<std::size_t> within_one = {401, 300, 199, 100};
  expect_pass("waterfill within a record", check_waterfill(models, within_one, 1000));
  const std::vector<std::size_t> skewed = {410, 300, 190, 100};
  expect_reject("unbalanced plan", check_waterfill(models, skewed, 1000));
  const std::vector<std::size_t> short_by_one = {400, 300, 200, 99};
  expect_reject("plan off by one", check_waterfill(models, short_by_one, 1000));
  const std::vector<std::size_t> dropped = {400, 300, 200};
  expect_reject("dropped partition", check_waterfill(models, dropped, 900));
  // A node with no records does not constrain the others.
  const std::vector<std::size_t> idle = {500, 0, 250, 125};
  const std::vector<optimize::NodeModel> slow_start = {
      {.slope = 0.25}, {.slope = 1.0 / 3.0, .intercept = 1e6}, {.slope = 0.5},
      {.slope = 1.0}};
  expect_pass("idle node ignored", check_waterfill(slow_start, idle, 875));
}

void test_seed_folding() {
  if (fold_seed(0x5155, 0, 0) != 0x5155) {
    ++failures;
    std::cerr << "FAIL seed 0, variant 0 must keep the preset\n";
  }
  if (fold_seed(0x5155, 1, 0) == fold_seed(0x5155, 0, 1) ||
      fold_seed(0x5155, 1, 0) == fold_seed(0x5155, 2, 0) ||
      fold_seed(0x5155, 0, kVariants) != fold_seed(0x5155, 1, 0)) {
    ++failures;
    std::cerr << "FAIL (seed, variant) must index distinct generator seeds\n";
  }
}

}  // namespace

int main() {
  test_status();
  test_conservation();
  test_energy();
  test_frequent_counts();
  test_raw_bytes_and_codec();
  test_waterfill();
  test_seed_folding();
  if (failures > 0) {
    std::cerr << failures << " oracle test case(s) failed\n";
    return 1;
  }
  std::cout << "hetbench oracle tests: all cases passed\n";
  return 0;
}

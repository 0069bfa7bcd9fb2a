// Self-tests for llamp-lint (src/tools/lint/): the fixture corpus under
// tests/lint_fixtures/ is byte-pinned against expected.txt, and the
// tokenizer / suppression / region mechanics are unit-tested in-process.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/lint/lint.hpp"

namespace llamp::lint {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

std::vector<std::string> rules_of(const std::vector<Finding>& fs) {
  std::vector<std::string> out;
  out.reserve(fs.size());
  for (const Finding& f : fs) out.push_back(f.rule);
  return out;
}

// ---------------------------------------------------------------------------
// The byte-pinned fixture wall: one seeded violation per rule, plus
// suppression and region-marker edge cases, diagnostics compared verbatim.
// ---------------------------------------------------------------------------

TEST(LintFixtures, TreeMatchesPinnedDiagnostics) {
  const std::vector<Finding> findings = lint_tree(LLAMP_LINT_FIXTURES);
  EXPECT_EQ(format_findings(findings),
            slurp(std::string(LLAMP_LINT_FIXTURES) + "/expected.txt"));
}

TEST(LintFixtures, EveryRuleHasASeededViolation) {
  const std::vector<Finding> findings = lint_tree(LLAMP_LINT_FIXTURES);
  for (const RuleInfo& rule : rule_catalogue()) {
    bool seen = false;
    for (const Finding& f : findings) seen = seen || f.rule == rule.id;
    EXPECT_TRUE(seen) << "no fixture violation for [" << rule.id << "]";
  }
}

TEST(LintFixtures, CliExitCodes) {
  std::string out;
  std::string err;
  const char* bad[] = {"llamp-lint", "--root", LLAMP_LINT_FIXTURES};
  EXPECT_EQ(run_cli(3, bad, out, err), 1);
  EXPECT_EQ(out, slurp(std::string(LLAMP_LINT_FIXTURES) + "/expected.txt"));

  const char* rules[] = {"llamp-lint", "--list-rules"};
  EXPECT_EQ(run_cli(2, rules, out, err), 0);
  EXPECT_NE(out.find("[det-rand]"), std::string::npos);

  const char* unknown[] = {"llamp-lint", "--frobnicate"};
  EXPECT_EQ(run_cli(2, unknown, out, err), 2);

  const char* noroot[] = {"llamp-lint", "--root", "/no/such/dir"};
  EXPECT_EQ(run_cli(3, noroot, out, err), 2);
}

// ---------------------------------------------------------------------------
// Tokenizer: comments, string/char literals, and raw strings must hide
// banned tokens; identifier boundaries must not split words.
// ---------------------------------------------------------------------------

TEST(LintScanner, LiteralsAndCommentsAreInvisible) {
  const std::string src =
      "#include <x>\n"
      "const char* a = \"rand srand std::cout\";\n"
      "// std::chrono::steady_clock::now() in a comment\n"
      "/* std::random_device in a block comment */\n"
      "const char* b = R\"(srand(time(nullptr)))\";\n"
      "char c = 'r';\n";
  EXPECT_TRUE(lint_file("src/core/x.cpp", src).empty());
}

TEST(LintScanner, IdentifierBoundaries) {
  EXPECT_TRUE(lint_file("src/core/x.cpp",
                        "int operand = renown + strand;\n")
                  .empty());
  const auto fs = lint_file("src/core/x.cpp", "int x = rand();\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "det-rand");
  EXPECT_EQ(fs[0].line, 1);
}

TEST(LintScanner, MultiLineBlockCommentHidesCode) {
  const std::string src = "/*\nstd::cout << rand();\n*/\nint x = 0;\n";
  EXPECT_TRUE(lint_file("src/core/x.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// Rule scoping.
// ---------------------------------------------------------------------------

TEST(LintRules, ClockExemptions) {
  const std::string src = "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_EQ(rules_of(lint_file("src/core/x.cpp", src)),
            std::vector<std::string>{"det-clock"});
  EXPECT_TRUE(lint_file("bench/bench_x.cpp", src).empty());
  // util/time.hpp may read clocks (it is the sanctioned wrapper), but as a
  // header it still needs #pragma once.
  EXPECT_TRUE(
      lint_file("src/util/time.hpp", "#pragma once\nauto f() { return "
                                     "std::chrono::steady_clock::now(); }\n")
          .empty());
}

TEST(LintRules, LogicalClocksAreNotWallClocks) {
  // A method named now() on a non-clock type (trace builder's virtual
  // per-rank clock) must not trip det-clock.
  EXPECT_TRUE(
      lint_file("src/trace/b.cpp", "TimeNs t = builder.now(0);\n").empty());
  EXPECT_TRUE(lint_file("src/trace/b.cpp",
                        "TimeNs TraceBuilder::now(int rank) const {\n")
                  .empty());
  // ...but a bench-style `Clock` alias does.
  EXPECT_EQ(rules_of(lint_file("src/trace/b.cpp", "auto t = Clock::now();\n")),
            std::vector<std::string>{"det-clock"});
}

TEST(LintRules, PrintExemptions) {
  const std::string src = "void f() { std::cout << 1; }\n";
  EXPECT_EQ(rules_of(lint_file("src/core/x.cpp", src)),
            std::vector<std::string>{"hyg-iostream"});
  EXPECT_TRUE(lint_file("src/tools/cli_driver.cpp", src).empty());
  EXPECT_TRUE(lint_file("src/util/cli.cpp", src).empty());
}

TEST(LintRules, UnorderedOnlyFlagsEmitterFiles) {
  const std::string src = "#include <unordered_map>\n";
  EXPECT_TRUE(lint_file("src/schedgen/schedgen.cpp", src).empty());
  EXPECT_EQ(rules_of(lint_file("src/core/report.cpp", src)),
            std::vector<std::string>{"det-unordered"});
  EXPECT_EQ(rules_of(lint_file("src/trace/trace_io.cpp", src)),
            std::vector<std::string>{"det-unordered"});
}

TEST(LintRules, PragmaOnce) {
  EXPECT_TRUE(lint_file("src/a/b.hpp", "#pragma once\nint x;\n").empty());
  EXPECT_TRUE(
      lint_file("src/a/b.hpp", "// leading comment\n#pragma once\n").empty());
  EXPECT_EQ(rules_of(lint_file("src/a/b.hpp", "#include <x>\n")),
            std::vector<std::string>{"hyg-pragma-once"});
  EXPECT_EQ(rules_of(lint_file("src/a/b.hpp", "")),
            std::vector<std::string>{"hyg-pragma-once"});
  // Sources have no such requirement.
  EXPECT_TRUE(lint_file("src/a/b.cpp", "#include <x>\n").empty());
}

// ---------------------------------------------------------------------------
// Hot-path regions and suppressions.
// ---------------------------------------------------------------------------

TEST(LintRegions, BansApplyOnlyInsideRegions) {
  const std::string src =
      "void cold(std::vector<int>& v) { v.push_back(1); }\n"
      "// llamp-lint: hot-path begin\n"
      "void hot(std::vector<int>& v) { v.push_back(1); }\n"
      "// llamp-lint: hot-path end\n"
      "void cold2(std::vector<int>& v) { v.reserve(9); }\n";
  const auto fs = lint_file("src/lp/x.cpp", src);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "hot-alloc");
  EXPECT_EQ(fs[0].line, 3);
}

TEST(LintRegions, MetricLookupsBannedInsideRegions) {
  // By-name registration (a string-literal first argument) is the tell; a
  // pre-registered handle or a forwarded name is fine, and outside a
  // region the lookup is the supported setup-time pattern.
  const std::string src =
      "void setup(Registry& r) { h = r.counter(\"ok\"); }\n"
      "// llamp-lint: hot-path begin\n"
      "void hot(Registry& r, Counter& h) {\n"
      "  h.inc();\n"
      "  r.counter(\"bad\").inc();\n"
      "  r.gauge(\"bad\");\n"
      "  r.histogram  (\"bad\");\n"
      "  r.histogram(name);\n"
      "}\n"
      "// llamp-lint: hot-path end\n";
  const auto fs = lint_file("src/lp/x.cpp", src);
  EXPECT_EQ(rules_of(fs), (std::vector<std::string>{"hot-metric", "hot-metric",
                                                    "hot-metric"}));
  ASSERT_EQ(fs.size(), 3u);
  EXPECT_EQ(fs[0].line, 5);
  EXPECT_EQ(fs[1].line, 6);
  EXPECT_EQ(fs[2].line, 7);
}

TEST(LintRegions, DesignatedFilesMustCarryARegion) {
  EXPECT_EQ(rules_of(lint_file("src/lp/parametric.cpp", "int x;\n")),
            std::vector<std::string>{"hot-region"});
  EXPECT_EQ(rules_of(lint_file("src/lp/batch.cpp", "int x;\n")),
            std::vector<std::string>{"hot-region"});
  EXPECT_EQ(rules_of(lint_file("src/stoch/mc.cpp", "int x;\n")),
            std::vector<std::string>{"hot-region"});
  EXPECT_TRUE(lint_file("src/stoch/mc.cpp",
                        "// llamp-lint: hot-path begin\n"
                        "// llamp-lint: hot-path end\n")
                  .empty());
}

TEST(LintSuppressions, ReasonedAllowSuppressesInlineAndNextLine) {
  const std::string inline_form =
      "// llamp-lint: hot-path begin\n"
      "v.push_back(1);  // llamp-lint: allow(hot-alloc): capacity reserved\n"
      "// llamp-lint: hot-path end\n";
  EXPECT_TRUE(lint_file("src/lp/x.cpp", inline_form).empty());
  const std::string own_line_form =
      "// llamp-lint: hot-path begin\n"
      "// llamp-lint: allow(hot-alloc): capacity reserved, and this\n"
      "// comment wraps across two lines before the code.\n"
      "v.push_back(1);\n"
      "// llamp-lint: hot-path end\n";
  EXPECT_TRUE(lint_file("src/lp/x.cpp", own_line_form).empty());
}

TEST(LintSuppressions, ReasonlessUnknownAndStaleAllowsSurface) {
  const auto reasonless = lint_file(
      "src/lp/x.cpp",
      "// llamp-lint: hot-path begin\n"
      "v.push_back(1);  // llamp-lint: allow(hot-alloc)\n"
      "// llamp-lint: hot-path end\n");
  EXPECT_EQ(rules_of(reasonless),
            (std::vector<std::string>{"hot-alloc", "lint-suppression"}));
  const auto unknown = lint_file(
      "src/core/x.cpp", "int a;  // llamp-lint: allow(bogus): reason\n");
  EXPECT_EQ(rules_of(unknown), std::vector<std::string>{"lint-suppression"});
  const auto stale = lint_file(
      "src/core/x.cpp", "int a;  // llamp-lint: allow(det-rand): stale\n");
  EXPECT_EQ(rules_of(stale), std::vector<std::string>{"lint-suppression"});
}

TEST(LintSuppressions, AllowCannotSuppressTheSuppressor) {
  const auto fs = lint_file(
      "src/core/x.cpp",
      "int a;  // llamp-lint: allow(lint-suppression): nice try\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "lint-suppression");
  EXPECT_NE(fs[0].message.find("unknown rule id"), std::string::npos);
}

TEST(LintFormat, DiagnosticShape) {
  const std::vector<Finding> fs = {{"src/a.cpp", 7, "det-rand", "msg"}};
  EXPECT_EQ(format_findings(fs), "src/a.cpp:7: [det-rand] msg\n");
}

}  // namespace
}  // namespace llamp::lint

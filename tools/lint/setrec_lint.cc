// setrec_lint: repo-specific invariant checker for setrec.
//
// Compilers enforce the language; this tool enforces the project's own
// contracts — the ones a correct-looking diff can silently break:
//
//   parse-assert     Wire-parse code (src/net/, src/util/serialization.*,
//                    src/iblt/iblt_codec.cc) must fail closed with
//                    Status/kParseError, never
//                    assert()/abort(): those paths see hostile bytes, and
//                    an assert is a remote crash (or a silent accept under
//                    NDEBUG). The <cassert> include is banned there too so
//                    the habit cannot creep back in.
//   resume-outside-driver
//                    coroutine_handle<>::resume() may only be called from
//                    the whitelisted shard drivers. Anywhere else it
//                    bypasses the service's parked-wake bookkeeping and
//                    can double-resume a handle (UB).
//   alloc-in-hot-path
//                    Regions marked `// LINT(alloc-free)` ... `// LINT(end)`
//                    (the XOR kernels and hash/index math behind the
//                    decode_allocs_warm == 0 benchmark claim) must not
//                    contain textually allocating calls.
//   view-member      IbltDecodeView / IbltDecodeView64 / IbltKeyView are
//                    borrows into a DecodeScratch arena, invalidated by the
//                    scratch's next decode. Storing one in a class member
//                    outlives the borrow; only src/iblt/iblt.h (the
//                    defining header and the arena itself) may do so.
//   simd-outside-kernel
//                    x86 intrinsic headers, vector types and intrinsics,
//                    and target attributes only in the files named for
//                    them (kSimdKernelFiles). Elsewhere they would run
//                    without the CpuHasAvx512() dispatch, or grow a second
//                    body with no scalar twin to test it against.
//   seed-outside-ladder
//                    The four set-of-sets protocol sources may not read
//                    `params_.seed`: every coin an attempt uses comes from
//                    its rung (AttemptLadder, src/core/split_party.h), so
//                    the two halves cannot derive different coins for one
//                    attempt and a seed schedule changes in one place.
//
// Annotation vocabulary (see docs/ANALYSIS.md):
//   // LINT(alloc-free)        begin an allocation-free region
//   // LINT(end)               end the innermost region
//   // LINT(allow:<rule>)      suppress <rule> on this line (use sparingly;
//                              the annotation is the audit trail)
//
// The scanner is token-level on comment- and string-stripped source: no
// libclang dependency, so it runs everywhere the build runs. That trades
// precision for availability — rules are written so the cheap
// approximation is exact on this codebase, and tools/lint/testdata pins
// the behavior either way.
//
// Usage:
//   setrec_lint --root <repo-root> --scan <dir> [--scan <dir> ...]
//   setrec_lint --fixtures <testdata-dir>
//   setrec_lint --root <repo-root> <file> [<file> ...]
// Exit: 0 clean, 1 violations (or fixture mismatch), 2 usage/IO error.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Violation {
  std::string path;
  size_t line = 0;  // 1-based.
  std::string rule;
  std::string message;
};

// ---------------------------------------------------------------------------
// Rule configuration (checked in, reviewed like code).
// ---------------------------------------------------------------------------

// Path prefixes whose files parse attacker-controlled bytes.
const char* const kWireParsePrefixes[] = {
    "src/net/",
    "src/util/serialization",
    "src/iblt/iblt_codec",
};

// The only files allowed to call coroutine_handle<>::resume(): the service
// shard driver, the planner build context, and the Task awaiter machinery.
const char* const kResumeWhitelist[] = {
    "src/service/sync_service.cc",
    "src/core/build_context.h",
    "src/core/task.h",
};

// The defining header for the view types; its member declarations ARE the
// view vocabulary (and the DecodeScratch arena the views borrow from).
const char* const kViewDefiningHeader = "src/iblt/iblt.h";

bool HasWireParsePrefix(const std::string& rel) {
  for (const char* prefix : kWireParsePrefixes) {
    if (rel.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

bool IsResumeWhitelisted(const std::string& rel) {
  for (const char* path : kResumeWhitelist) {
    if (rel == path) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Source model: raw lines plus a comment/string-stripped mirror.
// ---------------------------------------------------------------------------

struct SourceFile {
  std::string rel_path;
  std::vector<std::string> raw;
  std::vector<std::string> code;  // Comments and literal contents blanked.
};

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

// Blanks comments and the contents of string/char literals with spaces,
// preserving line structure, so token rules cannot fire on prose. Handles
// //, /* */, "...", '...', and R"delim(...)delim".
std::string StripCommentsAndStrings(const std::string& text) {
  std::string out(text.size(), ' ');
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_terminator;  // For kRawString: ")delim\"".
  const size_t n = text.size();
  for (size_t i = 0; i < n; ++i) {
    const char c = text[i];
    if (c == '\n') {
      out[i] = '\n';
      if (state == State::kLineComment) state = State::kCode;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
          state = State::kLineComment;
        } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
          // Raw string literal: R"delim( ... )delim".
          size_t open = text.find('(', i + 2);
          if (open != std::string::npos) {
            raw_terminator =
                ")" + text.substr(i + 2, open - (i + 2)) + "\"";
            state = State::kRawString;
            out[i] = 'R';
            i = open;  // Skip the prefix; contents get blanked.
          } else {
            out[i] = c;
          }
        } else if (c == '"') {
          out[i] = '"';
          state = State::kString;
        } else if (c == '\'') {
          out[i] = '\'';
          state = State::kChar;
        } else {
          out[i] = c;
        }
        break;
      case State::kLineComment:
        break;  // Blanked.
      case State::kBlockComment:
        if (c == '*' && i + 1 < n && text[i + 1] == '/') {
          ++i;
          state = State::kCode;
        }
        break;
      case State::kString:
        if (c == '\\' && i + 1 < n) {
          ++i;
          if (text[i] == '\n') out[i] = '\n';
        } else if (c == '"') {
          out[i] = '"';
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\' && i + 1 < n) {
          ++i;
        } else if (c == '\'') {
          out[i] = '\'';
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (c == ')' && text.compare(i, raw_terminator.size(),
                                     raw_terminator) == 0) {
          i += raw_terminator.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

bool LineAllows(const std::string& raw_line, const std::string& rule) {
  return raw_line.find("LINT(allow:" + rule + ")") != std::string::npos;
}

// ---------------------------------------------------------------------------
// Rules.
// ---------------------------------------------------------------------------

void CheckParseAssert(const SourceFile& f, std::vector<Violation>* out) {
  if (!HasWireParsePrefix(f.rel_path)) return;
  static const std::regex kAssertCall(R"(\b(assert|abort)\s*\()");
  static const std::regex kAssertInclude(
      R"(^\s*#\s*include\s*<(cassert|assert\.h)>)");
  for (size_t i = 0; i < f.code.size(); ++i) {
    if (LineAllows(f.raw[i], "parse-assert")) continue;
    if (std::regex_search(f.code[i], kAssertCall)) {
      out->push_back({f.rel_path, i + 1, "parse-assert",
                      "assert/abort in a wire-parse path; return "
                      "Status(kParseError) instead — these bytes are "
                      "attacker-controlled"});
    } else if (std::regex_search(f.code[i], kAssertInclude)) {
      out->push_back({f.rel_path, i + 1, "parse-assert",
                      "<cassert> include in a wire-parse path; parse code "
                      "fails closed via Status, not asserts"});
    }
  }
}

void CheckResumeWhitelist(const SourceFile& f, std::vector<Violation>* out) {
  if (IsResumeWhitelisted(f.rel_path)) return;
  static const std::regex kResume(R"(\.\s*resume\s*\()");
  for (size_t i = 0; i < f.code.size(); ++i) {
    if (LineAllows(f.raw[i], "resume-outside-driver")) continue;
    if (std::regex_search(f.code[i], kResume)) {
      out->push_back({f.rel_path, i + 1, "resume-outside-driver",
                      "coroutine resume() outside the whitelisted shard "
                      "drivers; route wakes through the service so a "
                      "handle cannot be double-resumed"});
    }
  }
}

void CheckAllocFreeRegions(const SourceFile& f, std::vector<Violation>* out) {
  static const std::regex kAlloc(
      R"(\bnew\b|\b(malloc|calloc|realloc)\s*\()"
      R"(|make_unique|make_shared|\bto_string\s*\()"
      R"(|\.\s*(push_back|emplace_back|emplace|resize|reserve|insert|assign)\s*\()"
      R"(|std::(string|vector|deque|map|set|unordered_map|unordered_set)\b)");
  bool in_region = false;
  size_t region_start = 0;
  for (size_t i = 0; i < f.raw.size(); ++i) {
    if (f.raw[i].find("LINT(alloc-free)") != std::string::npos) {
      if (in_region) {
        out->push_back({f.rel_path, i + 1, "alloc-in-hot-path",
                        "nested LINT(alloc-free) region (missing "
                        "LINT(end)?)"});
      }
      in_region = true;
      region_start = i + 1;
      continue;
    }
    if (f.raw[i].find("LINT(end)") != std::string::npos) {
      in_region = false;
      continue;
    }
    if (!in_region) continue;
    if (LineAllows(f.raw[i], "alloc-in-hot-path")) continue;
    if (std::regex_search(f.code[i], kAlloc)) {
      out->push_back({f.rel_path, i + 1, "alloc-in-hot-path",
                      "allocating call inside a LINT(alloc-free) region; "
                      "this code backs the decode_allocs_warm == 0 claim"});
    }
  }
  if (in_region) {
    out->push_back({f.rel_path, region_start, "alloc-in-hot-path",
                    "LINT(alloc-free) region never closed with LINT(end)"});
  }
}

// Hot paths must not read the clock through std::chrono (type machinery,
// and a second sanctioned timing idiom to audit) or raw clock_gettime: the
// obs sampling macro (SETREC_OBS_NOW in src/obs/clock.h) is the one
// timestamp source inside alloc-free regions — it compiles out under
// SETREC_OBS_DISABLE, which is what makes "instrumentation costs nothing
// when off" checkable.
void CheckClockInRegions(const SourceFile& f, std::vector<Violation>* out) {
  static const std::regex kClock(
      R"(\b[A-Za-z_]\w*_clock\s*::\s*now\s*\(|\bclock_gettime\s*\()");
  bool in_region = false;
  for (size_t i = 0; i < f.raw.size(); ++i) {
    if (f.raw[i].find("LINT(alloc-free)") != std::string::npos) {
      in_region = true;  // Region shape violations are alloc rule's job.
      continue;
    }
    if (f.raw[i].find("LINT(end)") != std::string::npos) {
      in_region = false;
      continue;
    }
    if (!in_region) continue;
    if (LineAllows(f.raw[i], "clock-in-hot-path")) continue;
    if (std::regex_search(f.code[i], kClock)) {
      out->push_back({f.rel_path, i + 1, "clock-in-hot-path",
                      "direct clock read inside a LINT(alloc-free) region; "
                      "sample time through SETREC_OBS_NOW() so disabled "
                      "builds compile the read out"});
    }
  }
}

// Formatting calls allocate (to_string) or burn hundreds of cycles on
// format parsing (snprintf family) — neither belongs in a region that
// claims to be allocation-free hot-path code. Observability output paths
// format AFTER leaving the region (the tracer records raw integers inside
// it and formats in OnSessionEnd/DumpRing, which run off the hot path).
void CheckFormatInRegions(const SourceFile& f, std::vector<Violation>* out) {
  static const std::regex kFormat(
      R"(\b(snprintf|sprintf|vsnprintf)\s*\(|\bto_string\s*\()");
  bool in_region = false;
  for (size_t i = 0; i < f.raw.size(); ++i) {
    if (f.raw[i].find("LINT(alloc-free)") != std::string::npos) {
      in_region = true;  // Region shape violations are alloc rule's job.
      continue;
    }
    if (f.raw[i].find("LINT(end)") != std::string::npos) {
      in_region = false;
      continue;
    }
    if (!in_region) continue;
    if (LineAllows(f.raw[i], "format-in-hot-path")) continue;
    if (std::regex_search(f.code[i], kFormat)) {
      out->push_back({f.rel_path, i + 1, "format-in-hot-path",
                      "string formatting inside a LINT(alloc-free) region; "
                      "record raw integers here and format off the hot "
                      "path (see obs/trace.h)"});
    }
  }
}

// Readiness syscalls live behind the Poller interface (net/poller.h):
// exactly the files under src/net/poller* may touch ::poll, epoll, or
// io_uring. Code polling raw fds elsewhere ties itself to one backend and
// loses the poll fallback MakePoller keeps for platforms without epoll.
const char* const kPollerBackendPrefix = "src/net/poller";

void CheckRawPoll(const SourceFile& f, std::vector<Violation>* out) {
  if (f.rel_path.rfind(kPollerBackendPrefix, 0) == 0) return;
  static const std::regex kRawPoll(
      R"(::\s*poll\s*\(|\bepoll_(create1?|ctl|wait|pwait2?)\s*\()"
      R"(|\bio_uring_(setup|enter|register)\b|__NR_io_uring)");
  for (size_t i = 0; i < f.code.size(); ++i) {
    if (LineAllows(f.raw[i], "raw-poll")) continue;
    if (std::regex_search(f.code[i], kRawPoll)) {
      out->push_back({f.rel_path, i + 1, "raw-poll",
                      "raw readiness syscall outside src/net/poller_*; go "
                      "through the Poller interface (net/poller.h) so it "
                      "stays the only readiness layer"});
    }
  }
}

// Vector code lives in the files named for it: the shared eight-lane mixers
// and the two AVX-512 bodies, each run only after CpuHasAvx512()
// (hashing/hash.h) and each tested against its scalar body.
const char* const kSimdKernelFiles[] = {
    "src/hashing/mix_avx512.h",
    "src/hashing/hash_avx512.cc",
    "src/iblt/iblt_avx512.cc",
};

void CheckSimdOutsideKernel(const SourceFile& f, std::vector<Violation>* out) {
  for (const char* path : kSimdKernelFiles) {
    if (f.rel_path == path) return;
  }
  // String contents are blanked in the code mirror, but their quotes stay,
  // which is what pins target("...") to the attribute form.
  static const std::regex kSimd(
      R"(#\s*include\s*<\w*intrin\.h>|\b__m(128|256|512)\w*)"
      R"(|\b_mm(256|512)?_\w+|\btarget(_clones)?\s*\(\s*")");
  for (size_t i = 0; i < f.code.size(); ++i) {
    if (LineAllows(f.raw[i], "simd-outside-kernel")) continue;
    if (std::regex_search(f.code[i], kSimd)) {
      out->push_back({f.rel_path, i + 1, "simd-outside-kernel",
                      "SIMD intrinsics or a target attribute outside the "
                      "kernel files; put vector code in a body beside its "
                      "scalar twin, chosen by CpuHasAvx512() (see "
                      "hashing/mix_avx512.h)"});
    }
  }
}

// The protocol halves that climb an attempt ladder. Their attempts take
// every seed from the rung the ladder hands them.
const char* const kLadderProtocolFiles[] = {
    "src/core/naive_protocol.cc",
    "src/core/iblt_of_iblts.cc",
    "src/core/cascading_protocol.cc",
    "src/core/multiround_protocol.cc",
};

void CheckSeedOutsideLadder(const SourceFile& f,
                            std::vector<Violation>* out) {
  if (std::find(std::begin(kLadderProtocolFiles),
                std::end(kLadderProtocolFiles),
                f.rel_path) == std::end(kLadderProtocolFiles)) {
    return;
  }
  static const std::regex kSeedRead(R"(\bparams_\s*(\.|->)\s*seed\b)");
  for (size_t i = 0; i < f.code.size(); ++i) {
    if (LineAllows(f.raw[i], "seed-outside-ladder")) continue;
    if (std::regex_search(f.code[i], kSeedRead)) {
      out->push_back({f.rel_path, i + 1, "seed-outside-ladder",
                      "protocol reads params_.seed; take the attempt's "
                      "coins from its Rung (rung.seed, rung.child_seed) so "
                      "the seed schedule stays in AttemptLadder "
                      "(core/split_party.h)"});
    }
  }
}

// Tracks whether each `{` opens a class/struct body, so member declarations
// can be told apart from locals and parameters.
void CheckViewMembers(const SourceFile& f, std::vector<Violation>* out) {
  if (f.rel_path == kViewDefiningHeader) return;
  static const std::regex kViewType(
      R"(\b(IbltDecodeView64|IbltDecodeView|IbltKeyView)\b)");
  static const std::regex kClassHead(R"(\b(class|struct)\b[^;()]*$)");

  std::vector<bool> scope_is_class;
  std::string pending;  // Code since the last ; { or }, feeds kClassHead.
  for (size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    const bool at_class_scope =
        !scope_is_class.empty() && scope_is_class.back();

    // A member declaration is a statement at class scope mentioning a view
    // type with no parentheses (those are method declarations/parameters).
    if (at_class_scope && !LineAllows(f.raw[i], "view-member")) {
      std::string trimmed = line;
      while (!trimmed.empty() &&
             std::isspace(static_cast<unsigned char>(trimmed.back()))) {
        trimmed.pop_back();
      }
      if (!trimmed.empty() && trimmed.back() == ';' &&
          trimmed.find('(') == std::string::npos &&
          trimmed.find("using") == std::string::npos &&
          trimmed.find("friend") == std::string::npos &&
          std::regex_search(trimmed, kViewType)) {
        out->push_back({f.rel_path, i + 1, "view-member",
                        "IBLT view type stored as a class member; views "
                        "borrow from a DecodeScratch and die at its next "
                        "decode — store owned keys or the scratch itself"});
      }
    }

    for (char c : line) {
      if (c == '{') {
        scope_is_class.push_back(std::regex_search(pending, kClassHead));
        pending.clear();
      } else if (c == '}') {
        if (!scope_is_class.empty()) scope_is_class.pop_back();
        pending.clear();
      } else if (c == ';') {
        pending.clear();
      } else {
        pending.push_back(c);
      }
    }
    pending.push_back(' ');
  }
}

void LintFile(const SourceFile& f, std::vector<Violation>* out) {
  CheckParseAssert(f, out);
  CheckResumeWhitelist(f, out);
  CheckAllocFreeRegions(f, out);
  CheckClockInRegions(f, out);
  CheckFormatInRegions(f, out);
  CheckRawPoll(f, out);
  CheckSimdOutsideKernel(f, out);
  CheckSeedOutsideLadder(f, out);
  CheckViewMembers(f, out);
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

SourceFile LoadSource(const std::string& rel_path, const std::string& text) {
  SourceFile f;
  f.rel_path = rel_path;
  f.raw = SplitLines(text);
  const std::string stripped = StripCommentsAndStrings(text);
  f.code = SplitLines(stripped);
  f.code.resize(f.raw.size());
  return f;
}

bool IsLintableFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h";
}

int ScanAndReport(const std::vector<fs::path>& files, const fs::path& root) {
  std::vector<Violation> violations;
  size_t files_scanned = 0;
  for (const fs::path& p : files) {
    std::string text;
    if (!ReadFile(p, &text)) {
      std::cerr << "setrec_lint: cannot read " << p << "\n";
      return 2;
    }
    const std::string rel =
        fs::relative(p, root).lexically_normal().generic_string();
    const SourceFile f = LoadSource(rel, text);
    LintFile(f, &violations);
    ++files_scanned;
  }
  for (const Violation& v : violations) {
    std::cout << v.path << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n";
  }
  std::cout << "setrec_lint: " << files_scanned << " files, "
            << violations.size() << " violation(s)\n";
  return violations.empty() ? 0 : 1;
}

// Fixture mode: each testdata file declares its expectation in header
// comments —
//   // LINT-TEST-PATH: src/net/fake.cc     (path the rules should see)
//   // LINT-TEST: expect-clean             (no violations)
//   // LINT-TEST: expect <rule>            (at least one <rule> violation)
int RunFixtures(const fs::path& dir) {
  size_t checked = 0;
  size_t failed = 0;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && IsLintableFile(entry.path())) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& p : paths) {
    std::string text;
    if (!ReadFile(p, &text)) {
      std::cerr << "setrec_lint: cannot read " << p << "\n";
      return 2;
    }
    std::string pretend_path = p.filename().generic_string();
    std::string expectation;
    for (const std::string& line : SplitLines(text)) {
      const size_t path_at = line.find("LINT-TEST-PATH:");
      const size_t expect_at = line.find("LINT-TEST:");
      if (path_at != std::string::npos) {
        pretend_path = line.substr(path_at + 15);
      } else if (expect_at != std::string::npos) {
        expectation = line.substr(expect_at + 10);
      }
    }
    auto trim = [](std::string* s) {
      while (!s->empty() &&
             std::isspace(static_cast<unsigned char>(s->front()))) {
        s->erase(s->begin());
      }
      while (!s->empty() &&
             std::isspace(static_cast<unsigned char>(s->back()))) {
        s->pop_back();
      }
    };
    trim(&pretend_path);
    trim(&expectation);
    if (expectation.empty()) {
      std::cerr << p << ": missing '// LINT-TEST:' directive\n";
      ++failed;
      continue;
    }

    std::vector<Violation> violations;
    LintFile(LoadSource(pretend_path, text), &violations);
    ++checked;

    bool ok;
    if (expectation == "expect-clean") {
      ok = violations.empty();
    } else if (expectation.rfind("expect ", 0) == 0) {
      const std::string rule = expectation.substr(7);
      ok = std::any_of(violations.begin(), violations.end(),
                       [&rule](const Violation& v) { return v.rule == rule; });
    } else {
      std::cerr << p << ": unknown expectation '" << expectation << "'\n";
      ++failed;
      continue;
    }
    if (!ok) {
      ++failed;
      std::cerr << "FIXTURE FAIL " << p << " (" << expectation << "), got "
                << violations.size() << " violation(s):\n";
      for (const Violation& v : violations) {
        std::cerr << "  " << v.path << ":" << v.line << ": [" << v.rule
                  << "] " << v.message << "\n";
      }
    }
  }
  std::cout << "setrec_lint fixtures: " << checked << " checked, " << failed
            << " failed\n";
  if (checked == 0) {
    std::cerr << "setrec_lint: no fixtures found under " << dir << "\n";
    return 2;
  }
  return failed == 0 ? 0 : 1;
}

int Usage() {
  std::cerr
      << "usage: setrec_lint --root <repo-root> --scan <dir> [--scan ...]\n"
      << "       setrec_lint --root <repo-root> <file> [<file> ...]\n"
      << "       setrec_lint --fixtures <testdata-dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::vector<fs::path> scan_dirs;
  std::vector<fs::path> files;
  fs::path fixtures;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--scan" && i + 1 < argc) {
      scan_dirs.emplace_back(argv[++i]);
    } else if (arg == "--fixtures" && i + 1 < argc) {
      fixtures = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      files.emplace_back(arg);
    }
  }

  if (!fixtures.empty()) return RunFixtures(fixtures);

  for (const fs::path& dir : scan_dirs) {
    const fs::path abs = dir.is_absolute() ? dir : root / dir;
    if (!fs::is_directory(abs)) {
      std::cerr << "setrec_lint: not a directory: " << abs << "\n";
      return 2;
    }
    for (const auto& entry : fs::recursive_directory_iterator(abs)) {
      if (entry.is_regular_file() && IsLintableFile(entry.path())) {
        files.push_back(entry.path());
      }
    }
  }
  if (files.empty()) return Usage();
  std::sort(files.begin(), files.end());
  return ScanAndReport(files, root);
}

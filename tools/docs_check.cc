// Documentation lint, run by the `docs-check` build target (and CI):
//
//  1. Every relative markdown link in the repo's *.md files must resolve
//     to an existing file or directory — dead links rot silently.
//  2. The live schemas of every system view (the USER_* and V$ views,
//     materialized through Database::SystemViewScope) must match
//     docs/golden/vdollar_schema.txt, so the schemas documented in
//     docs/observability.md cannot drift from the code.
//  3. The fail-point sites named by "odci/..." and "callback/..." string
//     literals under src/ must equal the backticked names in the "Site
//     inventory" of docs/fault-tolerance.md, so a site cannot be added,
//     renamed or lost without the inventory following.
//  4. Every "routine" of an `odci_calls` entry in a committed BENCH_*.json
//     at the repo root must appear as a string literal under src/, so a
//     renamed or deleted ODCI routine cannot linger in committed results.
//  5. Every backticked src/, tests/, bench/, tools/ or examples/ path in
//     README.md, DESIGN.md, EXPERIMENTS.md and docs/ must exist, and every
//     backticked BENCH_*.json name there must name a committed file at the
//     repo root (ROADMAP.md and CHANGES.md record history and are not
//     checked).
//
// Usage: docs_check <repo_root>
// Exit 0 = clean; 1 = findings (each printed on its own line).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "engine/connection.h"
#include "storage/heap_table.h"

namespace fs = std::filesystem;

namespace {

// Directories never scanned for markdown.
bool SkippedDir(const fs::path& p) {
  std::string name = p.filename().string();
  return name == ".git" || name == "build" || name.rfind("build", 0) == 0 ||
         name == ".claude";
}

std::vector<fs::path> MarkdownFiles(const fs::path& root) {
  std::vector<fs::path> out;
  std::vector<fs::path> stack = {root};
  while (!stack.empty()) {
    fs::path dir = stack.back();
    stack.pop_back();
    for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
      if (e.is_directory()) {
        if (!SkippedDir(e.path())) stack.push_back(e.path());
      } else if (e.path().extension() == ".md") {
        out.push_back(e.path());
      }
    }
  }
  return out;
}

// Extracts markdown link targets `](target)` from one line.  Good enough
// for this repo's hand-written docs; external and intra-page links are
// the caller's job to filter.
std::vector<std::string> LinkTargets(const std::string& line) {
  std::vector<std::string> out;
  size_t pos = 0;
  while ((pos = line.find("](", pos)) != std::string::npos) {
    size_t start = pos + 2;
    size_t end = line.find(')', start);
    if (end == std::string::npos) break;
    out.push_back(line.substr(start, end - start));
    pos = end + 1;
  }
  return out;
}

// Drops inline code spans: brackets inside them are code, not links.  As
// in CommonMark, a span opens with a run of backticks and closes with the
// next run of the same length; a run with no match is kept as text.
std::string WithoutCodeSpans(const std::string& line) {
  auto run_end = [&](size_t at) {
    size_t end = line.find_first_not_of('`', at);
    return end == std::string::npos ? line.size() : end;
  };
  std::string out;
  size_t pos = 0;
  size_t open;
  while ((open = line.find('`', pos)) != std::string::npos) {
    size_t width = run_end(open) - open;
    size_t close = open + width;
    while ((close = line.find('`', close)) != std::string::npos &&
           run_end(close) - close != width) {
      close = run_end(close);
    }
    if (close == std::string::npos) {  // unmatched run: plain text
      out += line.substr(pos, open + width - pos);
      pos = open + width;
    } else {
      out += line.substr(pos, open - pos);
      pos = close + width;
    }
  }
  return out + line.substr(pos);
}

bool IsExternal(const std::string& target) {
  return target.rfind("http://", 0) == 0 || target.rfind("https://", 0) == 0 ||
         target.rfind("mailto:", 0) == 0 || target.empty() ||
         target[0] == '#';
}

int CheckLinks(const fs::path& root) {
  int findings = 0;
  for (const fs::path& md : MarkdownFiles(root)) {
    std::ifstream in(md);
    std::string line;
    size_t lineno = 0;
    bool in_code_fence = false;
    while (std::getline(in, line)) {
      ++lineno;
      // A fence may be indented, e.g. inside a list item.
      size_t first = line.find_first_not_of(" \t");
      if (first != std::string::npos && line.compare(first, 3, "```") == 0) {
        in_code_fence = !in_code_fence;
      }
      if (in_code_fence) continue;
      for (std::string target : LinkTargets(WithoutCodeSpans(line))) {
        if (IsExternal(target)) continue;
        size_t hash = target.find('#');
        if (hash != std::string::npos) target.resize(hash);
        if (target.empty()) continue;
        fs::path resolved = md.parent_path() / target;
        if (!fs::exists(resolved)) {
          std::printf("%s:%zu: dead link: %s\n",
                      fs::relative(md, root).string().c_str(), lineno,
                      target.c_str());
          ++findings;
        }
      }
    }
  }
  return findings;
}

// Renders the live system-view schemas in the golden-file format, in
// registry order.
std::string LiveViewSchemas(exi::Database* db,
                            const std::vector<std::string>& views) {
  std::ostringstream os;
  for (const std::string& view : views) {
    os << view << "\n";
    exi::Result<exi::HeapTable*> table = db->catalog().GetTable(view);
    if (!table.ok()) {
      os << "  <missing: " << table.status().ToString() << ">\n";
      continue;
    }
    const exi::Schema& schema = (*table)->schema();
    for (size_t i = 0; i < schema.size(); ++i) {
      const exi::Column& col = schema.column(i);
      os << "  " << col.name << " " << col.type.ToString() << "\n";
    }
  }
  // V$STORAGE_METRICS is a (metric, value) pivot, so its *rows* are the
  // schema that docs/observability.md documents.  Emit the counter names
  // too: adding or renaming a StorageMetrics counter then forces a golden
  // (and docs) update.
  os << "v$storage_metrics rows\n";
  exi::ForEachMetric(exi::StorageMetrics{},
                     [&](const char* name, uint64_t) {
                       os << "  " << name << "\n";
                     });
  return os.str();
}

int CheckVdollarGolden(const fs::path& root) {
  fs::path golden_path = root / "docs" / "golden" / "vdollar_schema.txt";
  std::ifstream in(golden_path);
  if (!in) {
    std::printf("missing golden file: docs/golden/vdollar_schema.txt\n");
    return 1;
  }
  std::ostringstream golden;
  golden << in.rdbuf();

  exi::Database db;
  const std::vector<std::string> views = exi::Database::SystemViewNames();
  exi::Database::SystemViewScope scope(&db);
  exi::Status st = scope.Materialize(views);
  if (!st.ok()) {
    std::printf("Materialize failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::string live = LiveViewSchemas(&db, views);
  if (live != golden.str()) {
    std::printf(
        "system view schema drift: docs/golden/vdollar_schema.txt no longer "
        "matches the registry in src/engine/database.cc.\n---- golden "
        "----\n%s---- live ----\n%s",
        golden.str().c_str(), live.c_str());
    return 1;
  }
  return 0;
}

// Adds every `quote`-delimited "odci/..." or "callback/..." name in `text`
// to `out`.
void CollectSiteNames(const std::string& text, char quote,
                      std::set<std::string>* out) {
  for (const char* prefix : {"odci/", "callback/"}) {
    const std::string needle = quote + std::string(prefix);
    size_t pos = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
      size_t start = pos + 1;
      size_t end = text.find(quote, start);
      if (end == std::string::npos) break;
      out->insert(text.substr(start, end - start));
      pos = end + 1;
    }
  }
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Every .h and .cc file under src/, concatenated.
std::string SourceText(const fs::path& root) {
  std::string out;
  for (const fs::directory_entry& e :
       fs::recursive_directory_iterator(root / "src")) {
    const fs::path ext = e.path().extension();
    if (!e.is_regular_file() || (ext != ".h" && ext != ".cc")) continue;
    out += ReadFile(e.path());
  }
  return out;
}

int CheckSiteInventory(const fs::path& root, const std::string& source) {
  std::set<std::string> in_code;
  CollectSiteNames(source, '"', &in_code);

  std::ifstream doc(root / "docs" / "fault-tolerance.md");
  std::string line, section;
  bool in_section = false;
  while (std::getline(doc, line)) {
    if (line.rfind("#", 0) == 0) {
      in_section = line == "### Site inventory";
    } else if (in_section) {
      section += line + "\n";
    }
  }
  std::set<std::string> in_docs;
  CollectSiteNames(section, '`', &in_docs);

  int findings = 0;
  for (const std::string& site : in_code) {
    if (in_docs.count(site) == 0) {
      std::printf(
          "fail-point site %s (src/) is missing from the Site inventory of "
          "docs/fault-tolerance.md\n",
          site.c_str());
      ++findings;
    }
  }
  for (const std::string& site : in_docs) {
    if (in_code.count(site) == 0) {
      std::printf(
          "docs/fault-tolerance.md Site inventory lists %s, which no src/ "
          "fail-point fires\n",
          site.c_str());
      ++findings;
    }
  }
  return findings;
}

// The "routine" names of the entries in the `odci_calls` array of one
// BENCH_*.json.
std::vector<std::string> BenchRoutines(const std::string& json) {
  std::vector<std::string> out;
  const size_t begin = json.find("\"odci_calls\"");
  if (begin == std::string::npos) return out;
  const size_t end = json.find(']', begin);
  const std::string needle = "\"routine\": \"";
  for (size_t pos = json.find(needle, begin); pos < end;
       pos = json.find(needle, pos)) {
    const size_t start = pos + needle.size();
    const size_t close = json.find('"', start);
    if (close == std::string::npos) break;
    out.push_back(json.substr(start, close - start));
    pos = close + 1;
  }
  return out;
}

int CheckBenchRoutines(const fs::path& root, const std::string& source) {
  int findings = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(root)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 || e.path().extension() != ".json") {
      continue;
    }
    for (const std::string& routine : BenchRoutines(ReadFile(e.path()))) {
      if (source.find('"' + routine + '"') == std::string::npos) {
        std::printf(
            "%s names ODCI routine %s in odci_calls, which no src/ string "
            "literal names; re-run the bench that writes it\n",
            name.c_str(), routine.c_str());
        ++findings;
      }
    }
  }
  return findings;
}

// The repo path an inline code span names, cut at the first space or ':'
// (a line number): a source path, or a BENCH_*.json result at the repo
// root.  Empty for any other span and for globs.
std::string SourcePath(std::string span) {
  span = span.substr(0, span.find_first_of(" :"));
  if (span.find_first_of("*?{<") != std::string::npos) return "";
  for (const char* dir : {"src/", "tests/", "bench/", "tools/", "examples/"}) {
    if (span.rfind(dir, 0) == 0) return span;
  }
  if (span.rfind("BENCH_", 0) == 0 && span.find('/') == std::string::npos &&
      span.ends_with(".json")) {
    return span;
  }
  return "";
}

int CheckSourcePaths(const fs::path& root) {
  std::vector<fs::path> docs = {root / "README.md", root / "DESIGN.md",
                                root / "EXPERIMENTS.md"};
  for (const fs::path& md : MarkdownFiles(root / "docs")) docs.push_back(md);
  int findings = 0;
  for (const fs::path& md : docs) {
    std::ifstream in(md);
    std::string line;
    for (size_t lineno = 1; std::getline(in, line); ++lineno) {
      for (size_t open = line.find('`'), close;
           open != std::string::npos &&
           (close = line.find('`', open + 1)) != std::string::npos;
           open = line.find('`', close + 1)) {
        std::string path = SourcePath(line.substr(open + 1, close - open - 1));
        if (path.empty() || fs::exists(root / path)) continue;
        std::printf("%s:%zu: %s: %s\n",
                    fs::relative(md, root).string().c_str(), lineno,
                    path.rfind("BENCH_", 0) == 0
                        ? "no committed bench result at the repo root"
                        : "no such source path",
                    path.c_str());
        ++findings;
      }
    }
  }
  return findings;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: docs_check <repo_root>\n");
    return 2;
  }
  fs::path root = argv[1];
  const std::string source = SourceText(root);
  int findings = CheckLinks(root) + CheckVdollarGolden(root) +
                 CheckSiteInventory(root, source) +
                 CheckBenchRoutines(root, source) + CheckSourcePaths(root);
  if (findings == 0) {
    std::printf("docs-check: OK\n");
    return 0;
  }
  std::printf("docs-check: %d finding(s)\n", findings);
  return 1;
}

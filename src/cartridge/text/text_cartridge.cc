#include "cartridge/text/text_cartridge.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/scan_context.h"

namespace exi::text {

namespace {

// ---- Incremental scan workspace (Return Handle mechanism) ----

// Incremental computation (§2.2.3): a single-term query streams candidates
// straight off the posting IOT, one block at a time.  The workspace keeps
// the current block row and a cursor at the rest of its postings, so each
// block is read once per scan and each posting decoded once, when a Fetch
// returns it: a Fetch resumes the cursor, then reads the term's first
// block at or past `next_block`.  A Return Handle Precompute-All scan
// parks a PrecomputedCursor instead.
struct TextScanWorkspace {
  std::string term;
  Row block;                          // shares the stored row's boxes
  std::optional<BlockCursor> cursor;  // over `block`; none between blocks
  int64_t next_block = 0;
  bool exhausted = false;  // the term has no block at or past next_block
};

// ---- Return State serialization ----
// Layout: u64 pos | the TextMatch array.

void EncodeState(const std::vector<TextMatch>& matches, size_t pos,
                 std::vector<uint8_t>* out) {
  const uint64_t p = pos;
  out->resize(8 + matches.size() * sizeof(TextMatch));
  std::memcpy(out->data(), &p, 8);
  if (!matches.empty()) {  // memcpy is undefined on null, as data() may be
    std::memcpy(out->data() + 8, matches.data(),
                matches.size() * sizeof(TextMatch));
  }
}

Status DecodeState(const std::vector<uint8_t>& state, size_t* pos,
                   std::vector<TextMatch>* matches) {
  if (state.size() < 8 || (state.size() - 8) % sizeof(TextMatch) != 0) {
    return Status::Internal("corrupt text scan state");
  }
  uint64_t p;
  std::memcpy(&p, state.data(), 8);
  *pos = size_t(p);
  matches->resize((state.size() - 8) / sizeof(TextMatch));
  if (!matches->empty()) {
    std::memcpy(matches->data(), state.data() + 8, state.size() - 8);
  }
  return Status::OK();
}

// Visits the slice's rows whose indexed value is not NULL, in rid order,
// with that value, until `visit` returns false.
Status ScanDocuments(const OdciIndexInfo& info, ServerContext& ctx,
                     FunctionRef<bool(RowId, const std::string&)> visit) {
  const int col = info.indexed_position();
  if (col < 0) {
    return Status::Internal("text index has no indexed column position");
  }
  return ctx.ScanBaseTable(info.table_name, [&](RowId rid, const Row& row) {
    return row[col].is_null() || visit(rid, row[col].AsVarchar());
  });
}

}  // namespace

PostingSource MakePostingSource(const OdciIndexInfo& info,
                                const Tokenizer& tokenizer,
                                ServerContext& ctx) {
  PostingSource indexed = BlockPostingSource(
      [iot_name = PostingTableName(info.index_name), &ctx](
          const CompositeKey& prefix, FunctionRef<bool(const Row&)> visit) {
        return ctx.IotScanPrefix(iot_name, prefix, visit);
      });
  return [indexed = std::move(indexed), &tokenizer, &info, &ctx](
             const std::string& term, const PostingVisitor& visit) -> Status {
    if (!tokenizer.IsStopWord(term)) return indexed(term, visit);
    const Tokenizer functional;  // TextContains' analyzer: no stop words
    return ScanDocuments(info, ctx, [&](RowId rid, const std::string& text) {
      int64_t freq = 0;
      functional.ForEachToken(text,
                              [&](std::string_view t) { freq += t == term; });
      return freq == 0 || visit(rid, freq);
    });
  };
}

UniverseSource MakeUniverseSource(const OdciIndexInfo& info,
                                  ServerContext& ctx) {
  return [&info, &ctx](std::vector<RowId>* out) -> Status {
    return ScanDocuments(info, ctx, [out](RowId rid, const std::string&) {
      out->push_back(rid);
      return true;
    });
  };
}

IndexParameters TextIndexMethods::ParseParams(const std::string& text) {
  IndexParameters params;
  params.SetAccumulatingKey("ignore");
  params.Parse(text);
  return params;
}

Tokenizer TextIndexMethods::MakeTokenizer(const IndexParameters& params) {
  Tokenizer tokenizer(params.Get("language", "English"), {});
  tokenizer.AddStopWords(params.GetList("ignore"));
  return tokenizer;
}

namespace {

// How Start evaluates a query and where the scan keeps its state: the
// :Mode and :ContextMode PARAMETERS, InvalidArgument for any other value.
struct ScanStyle {
  bool incremental;
  bool use_state;
};

Result<ScanStyle> ScanStyleOf(const IndexParameters& params) {
  EXI_ASSIGN_OR_RETURN(size_t mode,
                       params.GetOneOf("Mode", {"precompute", "incremental"}));
  EXI_ASSIGN_OR_RETURN(size_t context,
                       params.GetOneOf("ContextMode", {"handle", "state"}));
  return ScanStyle{mode == 1, context == 1};
}

// ---- posting collection ----

// Gathers the postings of many documents and visits them grouped by
// (token, block) in key order: the one tokenization behind both a build
// and its maintenance.  Each distinct token keeps one Value and one posting
// list, appended to in rid order (a table scan's), so only a list whose
// rids went backwards is sorted; the distinct tokens are ranked once.
class PostingCollector {
 public:
  explicit PostingCollector(Tokenizer tokenizer)
      : tokenizer_(std::move(tokenizer)) {}

  // Adds one posting per distinct token of document `rid`.
  void Add(RowId rid, std::string_view text) {
    tokenizer_.ForEachToken(text, [&](std::string_view token) {
      auto it = ids_.find(token);
      if (it == ids_.end()) {
        lists_.emplace_back().token = Value::Varchar(std::string(token));
        // The key views the token Value's own string, which stays put.
        it = ids_.emplace(lists_.back().token.AsVarchar(), lists_.size() - 1)
                 .first;
      }
      List& list = lists_[it->second];
      if (!list.postings.empty() && list.postings.back().rid >= rid) {
        if (list.postings.back().rid == rid) {
          ++list.postings.back().freq;
          return;
        }
        list.backwards = true;
      }
      list.postings.push_back({rid, 1});
    });
  }

  bool empty() const { return lists_.empty(); }

  // Visits each (token, block) group's postings, ascending by rid, in
  // (token, block) order, as a span into the token's list.  Call it once,
  // after the last Add.  With `release`, each list is freed once visited;
  // otherwise the spans stay valid while the collector lives.
  void ForEachGroup(FunctionRef<void(const Value& token, int64_t block,
                                     std::span<const Posting> postings)>
                        visit,
                    bool release) {
    std::vector<uint32_t> order(lists_.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return lists_[a].token.AsVarchar() < lists_[b].token.AsVarchar();
    });
    for (uint32_t id : order) {
      std::vector<Posting>& postings = lists_[id].postings;
      if (lists_[id].backwards) {
        std::sort(postings.begin(), postings.end(),
                  [](const Posting& a, const Posting& b) {
                    return a.rid < b.rid;
                  });
      }
      for (size_t i = 0, j = 0; i < postings.size(); i = j) {
        const int64_t block = PostingBlock(postings[i].rid);
        while (j < postings.size() && PostingBlock(postings[j].rid) == block) {
          ++j;
        }
        visit(lists_[id].token, block, {postings.data() + i, j - i});
      }
      if (release) std::vector<Posting>().swap(postings);
    }
  }

 private:
  struct List {
    Value token;
    std::vector<Posting> postings;
    bool backwards = false;  // a rid was added below the one before it
  };

  Tokenizer tokenizer_;
  std::vector<List> lists_;  // by token id
  std::unordered_map<std::string_view, uint32_t> ids_;
};

}  // namespace

// ---- definition ----

Status TextIndexMethods::Create(const OdciIndexInfo& info,
                                ServerContext& ctx) {
  EXI_RETURN_IF_ERROR(ScanStyleOf(ParseParams(info.parameters)).status());
  EXI_RETURN_IF_ERROR(ctx.CreateIot(PostingTableName(info.index_name),
                                    PostingTableSchema(), kPostingKeyColumns));
  return Rebuild(info, ctx);
}

Status TextIndexMethods::Rebuild(const OdciIndexInfo& info,
                                 ServerContext& ctx) {
  // Encode the whole table's blocks, then load them with one callback
  // instead of one write each.
  PostingCollector collector(MakeTokenizer(ParseParams(info.parameters)));
  EXI_RETURN_IF_ERROR(
      ScanDocuments(info, ctx, [&](RowId rid, const std::string& text) {
        collector.Add(rid, text);
        return true;
      }));
  std::vector<Row> rows;
  collector.ForEachGroup(
      [&rows](const Value& token, int64_t block,
              std::span<const Posting> postings) {
        rows.push_back(EncodePostingBlock(token, block, postings));
      },
      /*release=*/true);
  return ctx.IotBulkLoad(PostingTableName(info.index_name), std::move(rows));
}

Status TextIndexMethods::Alter(const OdciIndexInfo& info,
                               ServerContext& ctx) {
  // Parameter changes (language, stop words) invalidate existing postings:
  // truncate and rebuild from the base table.
  EXI_RETURN_IF_ERROR(ScanStyleOf(ParseParams(info.parameters)).status());
  EXI_RETURN_IF_ERROR(ctx.IotTruncate(PostingTableName(info.index_name)));
  return Rebuild(info, ctx);
}

Status TextIndexMethods::Truncate(const OdciIndexInfo& info,
                                  ServerContext& ctx) {
  return ctx.IotTruncate(PostingTableName(info.index_name));
}

Status TextIndexMethods::Drop(const OdciIndexInfo& info, ServerContext& ctx) {
  return ctx.DropIot(PostingTableName(info.index_name));
}

// ---- maintenance ----

Status TextIndexMethods::WritePostings(const OdciIndexInfo& info,
                                       std::span<const RowId> rids,
                                       std::span<const Value> values,
                                       bool insert, ServerContext& ctx) {
  PostingCollector collector(MakeTokenizer(ParseParams(info.parameters)));
  for (size_t i = 0; i < rids.size(); ++i) {
    if (!values[i].is_null()) collector.Add(rids[i], values[i].AsVarchar());
  }
  if (collector.empty()) return Status::OK();
  // One key per (token, block), and its postings in the collector.
  std::vector<CompositeKey> keys;
  std::vector<std::span<const Posting>> groups;
  collector.ForEachGroup(
      [&](const Value& token, int64_t block,
          std::span<const Posting> postings) {
        keys.push_back({token, Value::Integer(block)});
        groups.push_back(postings);
      },
      /*release=*/false);
  return ctx.IotMergeSorted(
      PostingTableName(info.index_name), keys,
      [&](size_t k, const Row* current) {
        return MergePostingBlock(current, keys[k][0], keys[k][1].AsInteger(),
                                 groups[k], insert);
      });
}

Status TextIndexMethods::BatchInsert(const OdciIndexInfo& info,
                                     const std::vector<RowId>& rids,
                                     const ValueList& new_values,
                                     ServerContext& ctx) {
  return WritePostings(info, rids, new_values, /*insert=*/true, ctx);
}

Status TextIndexMethods::BatchDelete(const OdciIndexInfo& info,
                                     const std::vector<RowId>& rids,
                                     const ValueList& old_values,
                                     ServerContext& ctx) {
  return WritePostings(info, rids, old_values, /*insert=*/false, ctx);
}

// ---- scan ----

Result<OdciScanContext> TextIndexMethods::Start(const OdciIndexInfo& info,
                                                const OdciPredInfo& pred,
                                                ServerContext& ctx) {
  if (pred.args.empty() || pred.args[0].tag() != TypeTag::kVarchar) {
    return Status::InvalidArgument(
        "Contains requires a keyword query string argument");
  }
  std::string error;
  std::unique_ptr<QueryNode> query =
      ParseTextQuery(pred.args[0].AsVarchar(), &error);
  if (query == nullptr) return Status::InvalidArgument(error);

  IndexParameters params = ParseParams(info.parameters);
  Tokenizer tokenizer = MakeTokenizer(params);
  EXI_ASSIGN_OR_RETURN(ScanStyle style, ScanStyleOf(params));

  OdciScanContext sctx;
  if (style.incremental && query->kind == QueryNode::Kind::kTerm &&
      !tokenizer.IsStopWord(query->term)) {
    // Incremental computation: stream the posting list a batch at a time.
    auto ws = std::make_shared<TextScanWorkspace>();
    ws->term = query->term;
    sctx.handle = ScanWorkspaceRegistry::Global().Allocate(ws);
    return sctx;
  }

  // Precompute-All: evaluate the full boolean query now; Fetch iterates.
  EXI_ASSIGN_OR_RETURN(
      std::vector<TextMatch> matches,
      EvaluateTextQuery(*query, MakePostingSource(info, tokenizer, ctx),
                        MakeUniverseSource(info, ctx)));
  if (style.use_state) {
    EncodeState(matches, 0, &sctx.state);
    return sctx;
  }
  return PrecomputedCursor::Park(std::move(matches), [](const TextMatch& m) {
    return std::pair{m.rid, Value::Integer(m.score)};
  });
}

Status TextIndexMethods::Fetch(const OdciIndexInfo& info,
                               OdciScanContext& sctx, size_t max_rows,
                               OdciFetchBatch* out, ServerContext& ctx) {
  if (!sctx.uses_handle()) {
    // Return State: the full remaining result set rides in the context.
    size_t pos = 0;
    std::vector<TextMatch> matches;
    EXI_RETURN_IF_ERROR(DecodeState(sctx.state, &pos, &matches));
    size_t end = std::min(matches.size(), pos + max_rows);
    for (size_t i = pos; i < end; ++i) {
      out->rids.push_back(matches[i].rid);
      out->ancillary.push_back(Value::Integer(matches[i].score));
    }
    EncodeState(matches, end, &sctx.state);
    out->last = end == matches.size();
    return Status::OK();
  }
  if (!ScanWorkspaceRegistry::Global().Holds<TextScanWorkspace>(sctx.handle)) {
    return IndexMethods::Fetch(info, sctx, max_rows, out, ctx);
  }
  EXI_ASSIGN_OR_RETURN(
      std::shared_ptr<TextScanWorkspace> ws,
      ScanWorkspaceRegistry::Global().GetAs<TextScanWorkspace>(sctx.handle));
  std::string iot = PostingTableName(info.index_name);
  // A full batch whose cursor has reached its block's end looks up the
  // next block before returning, so the batch holding the term's last
  // posting is marked `last`.
  while (true) {
    if (ws->cursor.has_value()) {
      if (ws->cursor->end() < ws->cursor->bytes().size()) {
        if (out->rids.size() == max_rows) break;
        Status status;
        if (!ws->cursor->Next(&status)) return status;
        out->rids.push_back(ws->cursor->rid());
        out->ancillary.push_back(Value::Integer(ws->cursor->freq()));
        continue;
      }
      EXI_RETURN_IF_ERROR(ws->cursor->CheckDf());
      ws->cursor.reset();
    }
    if (ws->exhausted) break;
    CompositeKey lo = {Value::Varchar(ws->term),
                       Value::Integer(ws->next_block)};
    ws->exhausted = true;
    EXI_RETURN_IF_ERROR(ctx.IotScanRange(
        iot, &lo, /*lo_inclusive=*/true, /*hi=*/nullptr, true,
        [&](const Row& row) {
          if (row[0].AsVarchar() == ws->term) {
            ws->block = row;
            ws->exhausted = false;
          }
          return false;
        }));
    if (ws->exhausted) break;
    ws->cursor.emplace(ws->block);
    EXI_RETURN_IF_ERROR(ws->cursor->Open());
    ws->next_block = ws->block[1].AsInteger() + 1;
  }
  out->last = ws->exhausted;
  return Status::OK();
}

// ---- optimizer statistics ----

namespace {

// Document frequency of one term (posting-list length): the sum of its
// blocks' stored df, with no posting decoded.
Result<uint64_t> TermDocFreq(const std::string& iot_name,
                             std::string_view term, ServerContext& ctx) {
  uint64_t df = 0;
  EXI_RETURN_IF_ERROR(ctx.IotScanPrefix(
      iot_name, {Value::Varchar(std::string(term))}, [&df](const Row& row) {
        df += uint64_t(row[2].AsInteger());
        return true;
      }));
  return df;
}

// The selectivity of `node` over `table_rows` rows, given the df of each
// of its terms in CollectTerms' order, from `*next` on.
double QuerySelectivity(const QueryNode& node, const std::vector<uint64_t>& dfs,
                        uint64_t table_rows, size_t* next) {
  if (node.kind == QueryNode::Kind::kTerm) {
    return double(dfs[(*next)++]) / double(table_rows);
  }
  const double a = QuerySelectivity(*node.children[0], dfs, table_rows, next);
  if (node.kind == QueryNode::Kind::kNot) return 1.0 - a;
  const double b = QuerySelectivity(*node.children[1], dfs, table_rows, next);
  // AND assumes independence.
  return node.kind == QueryNode::Kind::kAnd ? a * b : a + b - a * b;
}

// The selectivity of `pred`, reading the df of each of its terms into `dfs`.
Result<double> Estimate(const OdciIndexInfo& info, const OdciPredInfo& pred,
                        uint64_t table_rows, std::vector<uint64_t>* dfs,
                        ServerContext& ctx) {
  if (pred.args.empty() || pred.args[0].tag() != TypeTag::kVarchar) {
    return 0.05;
  }
  std::string error;
  std::unique_ptr<QueryNode> query =
      ParseTextQuery(pred.args[0].AsVarchar(), &error);
  if (query == nullptr) return 0.05;
  if (table_rows == 0) return 0.0;
  const Tokenizer tokenizer = TextIndexMethods::MakeTokenizer(
      TextIndexMethods::ParseParams(info.parameters));
  std::vector<std::string_view> terms;
  query->CollectTerms(&terms);
  for (std::string_view term : terms) {
    uint64_t df = table_rows;  // a stop word: a scan reads every row for it
    if (!tokenizer.IsStopWord(term)) {
      EXI_ASSIGN_OR_RETURN(
          df, TermDocFreq(PostingTableName(info.index_name), term, ctx));
    }
    dfs->push_back(df);
  }
  size_t next = 0;
  return std::clamp(QuerySelectivity(*query, *dfs, table_rows, &next), 0.0,
                    1.0);
}

// The slice and query text a memo of dfs belongs to.
std::string MemoKey(const OdciIndexInfo& info, const OdciPredInfo& pred) {
  return info.index_name + '\0' +
         (pred.args.empty() ? "" : pred.args[0].ToString());
}

}  // namespace

Result<double> TextStats::Selectivity(const OdciIndexInfo& info,
                                      const OdciPredInfo& pred,
                                      uint64_t table_rows,
                                      ServerContext& ctx) {
  std::vector<uint64_t> dfs;
  EXI_ASSIGN_OR_RETURN(double sel,
                       Estimate(info, pred, table_rows, &dfs, ctx));
  std::lock_guard<std::mutex> lock(memo_mu_);
  memo_key_ = MemoKey(info, pred);
  memo_dfs_ = std::move(dfs);
  return sel;
}

Result<double> TextStats::IndexCost(const OdciIndexInfo& info,
                                    const OdciPredInfo& pred,
                                    double selectivity, uint64_t table_rows,
                                    ServerContext& ctx) {
  std::vector<uint64_t> dfs;
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    if (memo_key_ == MemoKey(info, pred)) dfs.swap(memo_dfs_);
    memo_key_.clear();
  }
  if (dfs.empty()) {  // a miss, or a query that reads no df
    EXI_RETURN_IF_ERROR(Estimate(info, pred, table_rows, &dfs, ctx).status());
  }
  // Cost: scan start + posting reads for each query term + result
  // materialization.
  double cost = 10.0;
  for (uint64_t df : dfs) cost += double(df) * 0.2;  // posting reads are cheap
  return cost + selectivity * double(table_rows) * 0.1;
}

// ---- functional implementation & installation ----

Status InstallTextCartridge(Connection* conn) {
  Catalog& catalog = conn->db()->catalog();

  // Functional implementation of Contains (§2.2.1): evaluated per row when
  // the optimizer does not pick the domain index.
  EXI_RETURN_IF_ERROR(catalog.functions().Register(
      "TextContains", [](const ValueList& args) -> Result<Value> {
        if (args.size() != 2) {
          return Status::InvalidArgument("TextContains expects 2 arguments");
        }
        if (args[0].is_null() || args[1].is_null()) return Value::Null();
        if (args[0].tag() != TypeTag::kVarchar ||
            args[1].tag() != TypeTag::kVarchar) {
          return Status::TypeMismatch("TextContains expects VARCHAR");
        }
        std::string error;
        std::unique_ptr<QueryNode> query =
            ParseTextQuery(args[1].AsVarchar(), &error);
        if (query == nullptr) return Status::InvalidArgument(error);
        Tokenizer tokenizer;
        return Value::Boolean(
            MatchesDocument(*query, tokenizer, args[0].AsVarchar()));
      }));

  // Implementation type holding the ODCIIndex routines (§2.2.3).
  EXI_RETURN_IF_ERROR(catalog.implementations().Register(
      "TextIndexMethods",
      [] { return std::make_shared<TextIndexMethods>(); },
      [] { return std::make_shared<TextStats>(); }));

  // Cartridge DDL (§2.2.2, §2.2.4).
  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE OPERATOR Contains BINDING (VARCHAR, VARCHAR) "
                    "RETURN BOOLEAN USING TextContains")
          .status());
  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE INDEXTYPE TextIndexType FOR "
                    "Contains(VARCHAR, VARCHAR) USING TextIndexMethods")
          .status());
  return Status::OK();
}

}  // namespace exi::text
